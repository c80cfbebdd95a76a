import io
import random
import signal
import weakref
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from toric_apolarity import (ApolarForm, DegreeBox, MultiPoly, Side,
                             build_fan, load_fan, parse_poly)
from toric_apolarity.linalg import rank_bareiss
from toric_apolarity.ring import basis, monomial_key
from toric_apolarity.secant import default_pins, parametrize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def f1():
    return load_fan(FIXTURES / "f1.fan")


@pytest.fixture(scope="session")
def p114():
    return load_fan(FIXTURES / "p114.fan")


@pytest.fixture(scope="session")
def fake():
    return load_fan(FIXTURES / "fake_plane.fan")


@pytest.fixture(scope="session")
def cube():
    """P1 x P1 x P1."""
    rays = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
            [0, 0, -1]]
    return build_fan(rays, [[i, j, k] for i in (0, 1) for j in (2, 3)
                            for k in (4, 5)])


@contextmanager
def alarm(seconds):
    """Raise TimeoutError after ``seconds``: a runaway in-process call
    fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The radius of the weight search, and its verdict per fan: the search
# depends on the fan alone, and one of radius 16 at free rank 3 scans
# 35,937 vectors.
WEIGHT_RADIUS = 16
_WEIGHTS = weakref.WeakKeyDictionary()


def search_weight(fan):
    """Oracle: the radius search alone, without the elimination gate; the
    first weight pairing every variable's free degree to >= 1, by radius
    up to WEIGHT_RADIUS, then lexicographically, or None."""
    if fan not in _WEIGHTS:
        rank = fan.class_group.free_rank
        frees = [d.free for d in fan.var_degrees]
        box = sorted(product(range(-WEIGHT_RADIUS, WEIGHT_RADIUS + 1),
                             repeat=rank),
                     key=lambda w: max(map(abs, w), default=0))
        _WEIGHTS[fan] = next(
            (w for w in box if all(
                sum(a * b for a, b in zip(w, f)) >= 1 for f in frees)), None)
    return _WEIGHTS[fan]


def walk_basis(fan, degree, weight=None):
    """Oracle: every exponent vector under the weight's budget, kept when
    its class is ``degree``; the weight is the searched one by default."""
    weight = weight or search_weight(fan)

    def grade(d):
        return sum(w * x for w, x in zip(weight, d.free))

    weights = [grade(d) for d in fan.var_degrees]
    assert min(weights) >= 1
    found = []

    def walk(prefix, left):
        if len(prefix) == len(weights):
            if fan.monomial_degree(prefix) == degree:
                found.append(tuple(prefix))
            return
        for e in range(left // weights[len(prefix)] + 1):
            walk(prefix + [e], left - e * weights[len(prefix)])

    budget = grade(degree)
    if budget >= 0:
        walk([], budget)
    return tuple(sorted(found, key=monomial_key, reverse=True))


def spanning_rays(dim, count, seed):
    """Seeded primitive rays in [-3, 3]^dim, ``count`` of them, that
    positively span R^dim: the last is the primitive vector along minus
    the sum of the others, which span R^dim."""
    rng = random.Random(seed)
    while True:
        rays = set()
        while len(rays) < count - 1:
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if gcd(*v) == 1:
                rays.add(v)
        rays = sorted(rays)
        last = [-sum(c) for c in zip(*rays)]
        if any(last) and rank_bareiss(rays) == dim:
            last = tuple(x // gcd(*last) for x in last)
            if last not in rays:
                return rays + [last]


def primal(fan, text):
    return parse_poly(text, fan.var_names, Side.PRIMAL)


def dual(fan, text):
    return parse_poly(text, fan.dual_var_names, Side.DUAL)


def form(fan, text):
    return ApolarForm(fan, dual(fan, text))


# Primes of the prime-field tests: the smallest ones, the prescreen prime
# and a large one.
PRIMES = (2, 3, 5, 101, 32003)

# Primes whose elimination slots outgrow a machine word: 2^61 - 1 fits 8
# bytes only in a single row, 10^24 + 7 never does.
WIDE_PRIMES = (2 ** 61 - 1, 10 ** 24 + 7)

# Denominators of the seeded rational forms; 101 is the prescreen prime.
DENOMINATORS = (2, 7, 101, 202, 3 * 101 ** 2)


def sympy_tangent_det(fan, degree, r, assignment):
    """Oracle: the determinant over Q of the stacked tangent matrix in the
    default chart, each point's rows being its coordinate monomials and
    their ``sympy.diff`` in each free coordinate, evaluated there."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x:{len(fan.rays)}", seq=True)
    mons = [sympy.Mul(*(x ** e for x, e in zip(xs, m)))
            for m in basis(fan, degree)]
    pins = default_pins(fan)
    free = [i for i in range(len(fan.rays)) if i not in pins]
    values = iter(Fraction(v) for v in assignment)
    rows = []
    for _ in range(r):
        point = {x: sympy.Integer(1) for x in xs}
        for i in free:
            v = next(values)
            point[xs[i]] = sympy.Rational(v.numerator, v.denominator)
        rows.append([mon.xreplace(point) for mon in mons])
        rows += [[sympy.diff(mon, xs[i]).xreplace(point) for mon in mons]
                 for i in free]
    det = sympy.Matrix(rows).det()
    return Fraction(int(det.p), int(det.q))


def rational_forms(fan, degree, seed):
    """Seeded forms of ``degree``: per denominator d in DENOMINATORS, one
    with random coefficients over d and one sum of two points with
    coordinates and weights over d."""
    rng = random.Random(seed)
    mons = list(basis(fan, degree))

    def q(d):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.choice([1, d]))

    forms = []
    for d in DENOMINATORS:
        coeffs = {m: q(d) for m in rng.sample(mons, min(6, len(mons)))}
        coeffs[mons[0]] = Fraction(1, d)
        forms.append(ApolarForm(fan, MultiPoly(Side.DUAL, coeffs)))
        total = MultiPoly.zero(Side.DUAL)
        for _ in range(2):
            point = parametrize(fan, degree, [q(d) for _ in fan.rays])
            total = total + point.scale(q(d))
        forms.append(ApolarForm(fan, total))
    return forms


def rational_cases(f1, p114, fake):
    """(form, box) pairs: the rational forms on each fixture, with a box
    running from 0 to the form's degree."""
    cases = []
    for seed, (fan, degree) in enumerate([(f1, f1.degree((4, 2))),
                                          (p114, p114.degree((6,))),
                                          (fake, fake.degree((6,), (1,)))]):
        box = DegreeBox(fan.class_group, tuple((0, x) for x in degree.free))
        cases += [(F, box) for F in rational_forms(fan, degree, seed)]
    return cases


def coefficient_matrix(F, degree):
    """Domain basis, target basis and the Fraction matrix of F's own
    coefficients: row i, column j holds the coefficient of the product of
    the i-th domain and the j-th target monomial."""
    rows = basis(F.fan, degree)
    cols = basis(F.fan, F.degree - degree)
    return rows, cols, [[F.poly.terms.get(tuple(a + b for a, b in zip(r, c)),
                                          Fraction(0)) for c in cols]
                        for r in rows]


def short_side(matrix, ncols):
    """The lines a rank reads: a catalecticant's short side, its rows
    unless it has more rows than columns, as lists."""
    return [list(line) for line in (
        matrix if len(matrix) <= ncols else zip(*matrix))]


def short_residues(matrix, ncols):
    """The lines the prescreen ranks: ``short_side``, one byte per cell,
    each the cell mod 101."""
    return [bytes(v % 101 for v in line)
            for line in short_side(matrix, ncols)]


def record_echelons(monkeypatch):
    """Swap ``linalg.SparseEchelon`` for a subclass that keeps every
    instance and every row handed to ``add``; returns the instances."""
    from toric_apolarity import linalg

    made = []

    class Recording(linalg.SparseEchelon):
        def __init__(self):
            super().__init__()
            self.inputs = []
            made.append(self)

        def add(self, row):
            self.inputs.append(dict(row))
            return super().add(row)

    monkeypatch.setattr(linalg, "SparseEchelon", Recording)
    return made


def assert_fraction_pivots(made):
    """Every stored pivot row leads with 1 and holds only Fractions; some
    row came in with a leading entry other than 1, so a pivot was
    normalized."""
    assert made
    for ech in made:
        for lead, row in ech._pivots.items():
            assert min(row) == lead and row[lead] == 1
            assert all(type(v) is Fraction for v in row.values())
    assert any(row[min(row)] != 1 for ech in made for row in ech.inputs if row)


def parse_outcome(argv, parser):
    """Exit code (None when parsed), stdout, stderr and Namespace of
    parsing ``argv`` with ``parser``."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace
