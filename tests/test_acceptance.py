"""Acceptance suite: every criterion is exercised at its stated tolerance
(all values exact integers/rationals, tolerance zero) and reports one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from fractions import Fraction

from toric_apolarity import (DegreeBox, GradedGroup, IdealGens, LaurentFamily,
                             MultiPoly, NonSimplicialCone, Side,
                             best_bounds, bound_report, build_fan,
                             cactus_certificate, catalecticant, check_symmetry,
                             colon_piece, contract, hilbert_value,
                             ideal_piece, limit_certificate, parse_laurent,
                             terracini_determinant_check, terracini_probe,
                             verify_decomposition)
from toric_apolarity.linalg import SparseEchelon
from toric_apolarity.ring import basis

from conftest import form, primal, search_weight, walk_basis


def criterion(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")
    assert not failures, f"criterion {number}: {failures}"


def check(failures, ok, label):
    if not ok:
        failures.append(label)


def test_criterion_1_class_groups(f1, p114, fake):
    failures = []
    check(failures, f1.class_group == GradedGroup(2), "F1 group")
    check(failures,
          [d.free for d in f1.var_degrees] == [(1, 0), (1, 0), (1, 1), (0, 1)],
          "F1 degree table")
    check(failures, p114.class_group == GradedGroup(1), "P114 group")
    check(failures, [d.free for d in p114.var_degrees] == [(1,), (1,), (4,)],
          "P114 degree table")
    check(failures, fake.class_group == GradedGroup(1, (3,)), "fake group")
    check(failures,
          [(d.free, d.torsion) for d in fake.var_degrees]
          == [((1,), (0,)), ((1,), (1,)), ((1,), (2,))],
          "fake degree table")
    criterion(1, "class groups and variable degree tables", failures)


def test_criterion_2_hilbert_grids(f1, p114, fake):
    failures = []
    F = form(f1, "x0*x1*y0*y1")
    rows = [[hilbert_value(F, f1.degree((a, b))) for a in range(4)]
            for b in range(3)]
    check(failures, rows == [[1, 2, 1, 0], [1, 3, 3, 1], [0, 1, 2, 1]],
          "F1 first grid")
    check(failures,
          check_symmetry(F, DegreeBox(f1.class_group, ((0, 3), (0, 2)))).ok,
          "F1 first symmetry")

    G = form(f1, "x0^2*x1^2*y0*y1")
    rows = [[hilbert_value(G, f1.degree((a, b))) for a in range(6)]
            for b in range(3)]
    check(failures, rows == [[1, 2, 3, 2, 1, 0], [1, 3, 5, 5, 3, 1],
                             [0, 1, 2, 3, 2, 1]], "F1 second grid")
    check(failures,
          check_symmetry(G, DegreeBox(f1.class_group, ((0, 5), (0, 2)))).ok,
          "F1 second symmetry")

    H = form(p114, "x^2*y^2")
    check(failures,
          [hilbert_value(H, p114.degree((k,))) for k in range(5)]
          == [1, 2, 3, 2, 1], "P114 grid")
    check(failures,
          check_symmetry(H, DegreeBox(p114.class_group, ((0, 4),))).ok,
          "P114 symmetry")

    K = form(fake, "x0^2*x1^2*x2^2")
    check(failures, hilbert_value(K, fake.degree((3,), (1,))) == 3,
          "fake value at (3,1)")
    check(failures,
          check_symmetry(K, DegreeBox(fake.class_group, ((0, 6),))).ok,
          "fake symmetry")
    criterion(2, "Hilbert grids with symmetry verdicts", failures)


def test_criterion_3_catalecticant_bounds(f1, p114):
    failures = []
    report = bound_report(form(f1, "x0*x1*y0*y1"), f1.degree((2, 1)))
    check(failures, report.border == 3, "F1 border at (2,1)")
    check(failures, report.cactus == 3, "F1 cactus at (2,1)")

    sweep = best_bounds(form(f1, "x0^2*x1^2*y0*y1"),
                        DegreeBox(f1.class_group, ((0, 5), (0, 2))))
    check(failures, sweep.border == 5, "F1 second border bound")

    report = bound_report(form(p114, "x^2*y^2"), p114.degree((2,)))
    check(failures, report.border == 3, "P114 border at 2")
    check(failures, report.cactus is None and not report.cartier,
          "P114 cactus suppressed at non-Cartier 2")
    criterion(3, "border/cactus bounds with the Cartier gate", failures)


UPPER_BOUND_CASES = [
    # fan name, form, ideal generators, ample, expected length, reduced
    ("f1", "x0*x1*y0*y1", ["a0^2-a1^2", "b0^2-a1^2*b1^2"], (1, 1), 4, True),
    ("f1", "x0^2*x1^2*y0*y1", ["a0^3-a1^3", "b0^2-b1^2*a1^2"], (1, 1), 6, True),
    ("p114", "x^2*y^2", ["a^3", "b^3"], (4,), 2, False),
    ("p114", "x^2*y^2", ["a^3-b^3", "c"], (4,), 3, True),
    ("fake", "x0^4*x1*x2", ["a1^2", "a2^2"], (3,), 2, False),
    ("fake", "x0^4*x1*x2", ["a0^5-a1^4*a2", "a1^3-a2^3"], (3,), 5, True),
    ("fake", "x0^2*x1^2*x2^2", ["a0^3-a1^3", "a1^3-a2^3"], (3,), 3, True),
]


def test_criterion_4_upper_bound_certificates(request):
    failures = []
    for fan_name, form_text, gens, ample, want, reduced in UPPER_BOUND_CASES:
        fan = request.getfixturevalue(fan_name)
        F = form(fan, form_text)
        ideal = IdealGens(fan, [primal(fan, g) for g in gens])
        label = f"{fan_name} {form_text} {gens}"
        try:
            cert = cactus_certificate(F, ideal, fan.degree(ample),
                                      reduced_asserted=reduced)
        except Exception as exc:  # containment failure is a criterion failure
            failures.append(f"{label}: {exc}")
            continue
        check(failures, cert.length.stabilized, f"{label}: stabilized")
        check(failures, max(k for k, _ in cert.length.samples) <= 12,
              f"{label}: within k<=12")
        check(failures, cert.cactus_bound == want, f"{label}: length {want}")
        if reduced:
            check(failures, cert.rank_bound == want, f"{label}: rank bound")
    criterion(4, "containment plus length reproduces every upper bound",
              failures)


def test_criterion_5_decomposition_identity(f1):
    failures = []
    F = form(f1, "x0*x1*y0*y1")
    quarter = Fraction(1, 4)
    result = verify_decomposition(F, [
        (quarter, (1, 1, 1, 1)), (-quarter, (1, 1, 1, -1)),
        (-quarter, (1, -1, 1, 1)), (quarter, (1, -1, 1, -1))])
    check(failures, result.ok, "four-point quarter identity")
    criterion(5, "exact four-point decomposition identity", failures)


def golden_family():
    params = ("l", "m")
    L = lambda s: parse_laurent(s, params)
    return LaurentFamily(params, (
        (L("l^-1*m^-1"), (L("l"), L("1"), L("1"), L("m"))),
        (L("-1*l^-1*m^-1"), (L("0"), L("1"), L("1"), L("m"))),
        (L("-1*m^-1"), (L("1"), L("0"), L("1"), L("0"))),
    ))


def test_criterion_6_limit_certificate(f1):
    failures = []
    F = form(f1, "x0*x1*y0*y1")
    cert = limit_certificate(F, golden_family())
    check(failures, cert.valid, "three-term family VALID")
    want = (
        ((0, 1), (1, 2, 0, 2), Fraction(1)),   # m * x0*x1^2*y1^2
        ((1, 0), (2, 0, 1, 1), Fraction(1)),   # l * x0^2*y0*y1
        ((1, 1), (2, 1, 0, 2), Fraction(1)),   # l*m * x0^2*x1*y1^2
        ((2, 1), (3, 0, 0, 2), Fraction(1)),   # l^2*m * x0^3*y1^2
    )
    check(failures, cert.residue == want, "residue terms exact")
    criterion(6, "three-term limit certificate with exact residue", failures)


def test_criterion_7_terracini(f1):
    failures = []
    probe = terracini_probe(f1, f1.degree((3, 2)), 3, prime=101, trials=5,
                            seed=0)
    check(failures, probe.rank == 9, "rank 9 for the cubic embedding")
    probe = terracini_probe(f1, f1.degree((5, 2)), 5, prime=101, trials=5,
                            seed=0)
    check(failures, probe.rank == 15, "rank 15 for the quintic embedding")
    det = terracini_determinant_check(f1, f1.degree((5, 2)), 5,
                                      [1, 2, 3, 4, 5, 6, 7, 9, 0, 2],
                                      prime=101)
    check(failures, det == 34, "determinant 34 over Z/101")

    rng = random.Random(314159)
    for i in range(20):
        vals = [Fraction(rng.randrange(-12, 13), rng.randrange(1, 8))
                for _ in range(6)]
        x, y, s, t, u, v = vals
        det = terracini_determinant_check(f1, f1.degree((3, 2)), 3, vals)
        factored = (s - u) * (u - x) * (s - x) \
            * (y * s - x * t - y * u + t * u + x * v - s * v) ** 4
        check(failures, det == factored, f"factored determinant, sample {i}")
    criterion(7, "Terracini probes, golden determinant, factored form",
              failures)


def test_criterion_8_property_suites(f1, p114, fake):
    failures = []
    # duality pairing matrices are the identity over a test box
    boxes = [(f1, DegreeBox(f1.class_group, ((0, 3), (0, 2)))),
             (p114, DegreeBox(p114.class_group, ((0, 4),))),
             (fake, DegreeBox(fake.class_group, ((0, 4),)))]
    for fan, box in boxes:
        for degree in box:
            mons = basis(fan, degree)
            ok = all(
                contract(MultiPoly.monomial(Side.PRIMAL, a),
                         MultiPoly.monomial(Side.DUAL, b)).terms
                == ({(0,) * len(fan.rays): Fraction(1)} if i == j else {})
                for i, a in enumerate(mons) for j, b in enumerate(mons))
            check(failures, ok, f"duality identity at {degree}")

    # module law on 100 random small instances
    rng = random.Random(42)
    pool = [m for d in [f1.degree((1, 0)), f1.degree((1, 1)), f1.degree((0, 1))]
            for m in basis(f1, d)]
    target = list(basis(f1, f1.degree((3, 3))))

    def rand_poly(mons, side):
        return MultiPoly(side, {rng.choice(mons): Fraction(rng.randrange(-3, 4) or 1)
                                for _ in range(rng.randrange(1, 3))})

    for i in range(100):
        g = rand_poly(pool, Side.PRIMAL)
        h = rand_poly(pool, Side.PRIMAL)
        F = rand_poly(target, Side.DUAL)
        check(failures,
              contract(g * h, F) == contract(g, contract(h, F)),
              f"module law instance {i}")

    # transpose rank symmetry
    F = form(f1, "x0^2*x1^2*y0*y1")
    for degree in DegreeBox(f1.class_group, ((0, 5), (0, 2))):
        check(failures,
              catalecticant(F, degree).rank
              == catalecticant(F, F.degree - degree).rank,
              f"transpose rank at {degree}")

    # basis enumeration is weight independent: the walk under a weight
    # and under the searched one both list the basis
    for fan, degree, other in [(f1, f1.degree((3, 2)), (3, 2)),
                               (p114, p114.degree((8,)), (2,))]:
        check(failures,
              search_weight(fan) not in (None, other)
              and basis(fan, degree) == walk_basis(fan, degree, other)
              == walk_basis(fan, degree),
              f"weight independence at {degree}")

    # colon piece contains ideal piece
    samples = [(f1, ["a0^2-a1^2", "b0^2-a1^2*b1^2"],
                [f1.degree((1, 1)), f1.degree((2, 1))]),
               (fake, ["a1^2", "a2^2"],
                [fake.degree((2,)), fake.degree((3,), (1,))]),
               (p114, ["a^3", "b^3"], [p114.degree((4,)), p114.degree((5,))])]
    for fan, gens, degrees in samples:
        ideal = IdealGens(fan, [primal(fan, g) for g in gens])
        for degree in degrees:
            colon = colon_piece(ideal, degree)
            ech = SparseEchelon()
            for v in colon:
                ech.add({i: c for i, c in enumerate(v) if c})
            ok = all(ech.contains({i: c for i, c in enumerate(v) if c})
                     for v in ideal_piece(ideal, degree))
            check(failures, ok, f"colon contains ideal at {degree}")
    criterion(8, "property suites (duality, module law, symmetry, "
                 "weights, colon)", failures)


def test_criterion_9_negative_controls(f1, p114):
    failures = []
    F = form(f1, "x0*x1*y0*y1")
    quarter = Fraction(1, 4)
    bad = verify_decomposition(F, [
        (Fraction(1, 2), (1, 1, 1, 1)), (-quarter, (1, 1, 1, -1)),
        (-quarter, (1, -1, 1, 1)), (quarter, (1, -1, 1, -1))])
    check(failures, not bad.ok, "perturbed decomposition rejected")

    fam = golden_family()
    L = lambda s: parse_laurent(s, ("l", "m"))
    flipped = LaurentFamily(("l", "m"),
                            ((L("-1*l^-1*m^-1"), fam.terms[0][1]),)
                            + fam.terms[1:])
    cert = limit_certificate(F, flipped)
    check(failures, not cert.valid, "sign-flipped family INVALID")

    try:
        build_fan([[1, 0], [-1, 0], [0, 1]], [[0, 1]])
        failures.append("non-simplicial cone accepted")
    except NonSimplicialCone:
        pass

    report = bound_report(form(p114, "x^2*y^2"), p114.degree((2,)))
    check(failures, report.cactus is None,
          "cactus bound absent for non-Cartier class")
    criterion(9, "negative controls", failures)
