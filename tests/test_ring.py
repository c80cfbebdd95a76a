import gc
import random
import re
import weakref
from fractions import Fraction
from itertools import chain, product, repeat
from math import gcd
from operator import add, mul

import pytest

from toric_apolarity import (BasisTooLarge, Completeness, MultiPoly,
                             NoCertificate, ParseError, Side, TorusFactor,
                             build_fan, format_poly, homogeneous_degree,
                             load_fan, parse_laurent, parse_poly)
from toric_apolarity.ring import basis, monomial_key

from conftest import (FIXTURES, alarm, dual, primal, search_weight,
                      spanning_rays, walk_basis)


def test_certificates(f1, p114, fake):
    # the walk gate passes every fixture, and the search finds all-ones
    from toric_apolarity import ring

    assert search_weight(f1) == (1, 1)
    assert search_weight(p114) == (1,)
    assert search_weight(fake) == (1,)
    for fan in (f1, p114, fake):
        assert len(ring._walk_systems(fan)) == fan.ambient_rank
        # oracle: the weight pairs to >= 1 with every variable degree
        w = search_weight(fan)
        for d in fan.var_degrees:
            assert sum(a * b for a, b in zip(w, d.free)) >= 1


def test_no_certificate_for_affine_grading():
    # a half-plane fan graded with opposite signs has no positive weight,
    # and the walk gate refuses it
    from toric_apolarity import ring

    fan = build_fan([[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]])
    assert search_weight(fan) is None
    with pytest.raises(NoCertificate):
        ring._walk_systems(fan)


def brute_force_basis(fan, degree, cap):
    nvars = len(fan.rays)
    found = [e for e in product(range(cap + 1), repeat=nvars)
             if fan.monomial_degree(e) == degree]
    return sorted(found, key=monomial_key, reverse=True)


def test_basis_counts_match_embedding_dimensions(f1, p114, fake):
    assert len(basis(f1, f1.degree((3, 2)))) == 9
    assert len(basis(f1, f1.degree((5, 2)))) == 15
    assert len(basis(p114, p114.degree((4,)))) == 6
    assert len(basis(fake, fake.degree((6,), (0,)))) == 10


def test_basis_against_brute_force(f1, p114, fake):
    cases = [(f1, f1.degree((3, 2)), 6), (f1, f1.degree((2, 1)), 4),
             (p114, p114.degree((4,)), 5), (fake, fake.degree((6,), (0,)), 7),
             (fake, fake.degree((3,), (1,)), 4)]
    for fan, degree, cap in cases:
        assert list(basis(fan, degree)) == brute_force_basis(fan, degree, cap)


def test_weighted_plane_degree_four_monomials(p114):
    assert list(basis(p114, p114.degree((4,)))) == [
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0), (0, 0, 1)]


def test_empty_piece_is_legal(f1):
    assert basis(f1, f1.degree((-1, 0))) == ()
    assert basis(f1, f1.degree((1, -1))) == ()


def test_basis_independent_of_certificate(f1, p114):
    # the gate passes, the search finds a weight, and the walks under it
    # and under another weight both list the basis
    from toric_apolarity import ring

    for fan, degree, other in [(f1, f1.degree((3, 2)), (2, 3)),
                               (p114, p114.degree((8,)), (3,))]:
        assert len(ring._walk_systems(fan)) == fan.ambient_rank
        assert search_weight(fan) not in (None, other)
        assert basis(fan, degree) == walk_basis(fan, degree) \
            == walk_basis(fan, degree, other)


def box_degrees(fan, ranges):
    group = fan.class_group
    for free in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        for tors in product(*(range(d) for d in group.torsion_orders)):
            yield group.degree(free, tors)


def test_basis_matches_walk_on_boxes(f1, p114, fake, cube):
    cases = [(f1, [(-2, 9), (-2, 5)]), (p114, [(-3, 20)]),
             (fake, [(-3, 16)]), (cube, [(-1, 3)] * 3)]
    for fan, ranges in cases:
        for degree in box_degrees(fan, ranges):
            assert basis(fan, degree) == walk_basis(fan, degree), degree


def test_basis_matches_walk_on_random_complete_fans():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def angle_key(ray):
        x, y = ray
        half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
        return (half, 0, Fraction(0)) if y == 0 else (half, 1, Fraction(-x, y))

    vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda v: v != (0, 0) and gcd(*v) == 1)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(vectors, min_size=3, max_size=5, unique=True),
                      st.lists(st.integers(-2, 3), min_size=5, max_size=5))
    def check(rays, shift):
        rays = sorted(rays, key=angle_key)
        k = len(rays)
        hypothesis.assume(all(rays[i][0] * rays[(i + 1) % k][1]
                              - rays[i][1] * rays[(i + 1) % k][0] > 0
                              for i in range(k)))
        fan = build_fan(rays, [[i, (i + 1) % k] for i in range(k)])
        assert fan.check_complete() is Completeness.COMPLETE
        degree = fan.monomial_degree([max(x, 0) for x in shift[:k]]) \
            - fan.monomial_degree([max(-x, 0) for x in shift[:k]])
        assert basis(fan, degree) == walk_basis(fan, degree)

    check()


def test_unbounded_polytope_is_refused():
    # no certificate exists here, so the elimination meets an open bound
    fan = build_fan([[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]])
    with pytest.raises(NoCertificate):
        basis(fan, fan.degree((1,)))


def test_basis_searches_no_weight():
    # a complete fan of free rank 12 whose nearest weight lies past radius
    # 1, where the next shell alone has 243.6 million vectors
    rays = [[1, 0], [3, 1], [2, 1], [1, 1], [1, 2], [1, 3], [0, 1], [-1, 3],
            [-1, 2], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]]
    fan = build_fan(rays, [[i, (i + 1) % 14] for i in range(14)])
    degree = fan.degree((1,) + (0,) * 11)
    assert basis(fan, degree) == ((1,) + (0,) * 13,)
    assert basis(fan, degree.scale(2)) == ((2,) + (0,) * 13,)


def test_poly_arithmetic(f1):
    p = primal(f1, "a0^2*b1 + 3*b0")
    one = MultiPoly.one(Side.PRIMAL, 4)
    assert p * one == p
    lhs = primal(f1, "a0 + a1") * primal(f1, "a0 - a1")
    assert lhs == primal(f1, "a0^2 - a1^2")
    prod = primal(f1, "a0^2*b1") * primal(f1, "b0")
    assert prod.degree == f1.degree((3, 2))


def test_dual_multiplication_rejected(f1):
    with pytest.raises(Exception) as err:
        dual(f1, "x0") * dual(f1, "x1")
    assert err.type.__name__ == "SideMismatch"


def test_multiply_commutative_associative(f1):
    rng = random.Random(99)
    mons = list(basis(f1, f1.degree((2, 1)))) + list(basis(f1, f1.degree((1, 1))))

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            terms[rng.choice(mons)] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return MultiPoly(Side.PRIMAL, terms)

    for _ in range(40):
        a, b, c = random_poly(), random_poly(), random_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_homogeneity_tagging(f1):
    assert homogeneous_degree(f1, primal(f1, "a0^2 - a1^2")) == f1.degree((2, 0))
    assert homogeneous_degree(f1, primal(f1, "a0 + b0")) is None


def test_homogeneity_compares_torsion_residues(fake):
    # on Z x Z/3, a0, a1, a2 have degrees (1,0), (1,1), (1,2): terms that
    # differ only in torsion are inhomogeneous, and residues are compared
    # after reduction (a2^2 and a0*a1 both have degree (2,1))
    assert homogeneous_degree(fake, primal(fake, "a0 + a1")) is None
    assert homogeneous_degree(fake, primal(fake, "a0^2 - a1^2")) is None
    assert homogeneous_degree(fake, primal(fake, "a0*a1 - a2^2")) == \
        fake.degree((2,), (1,))
    assert homogeneous_degree(fake, primal(fake, "a0^3 + a1^3 + a2^3")) == \
        fake.degree((3,), (0,))
    assert homogeneous_degree(fake, dual(fake, "x1^2 + x0*x2")) == \
        fake.degree((2,), (2,))
    assert homogeneous_degree(fake, MultiPoly(Side.DUAL, {})) is None


def test_parse_round_trip_examples(f1, p114):
    for fan, names, text in [
            (f1, f1.var_names, "3/4*a0^2*b1"),
            (f1, f1.var_names, "a0^2 - a1^2"),
            (f1, f1.dual_var_names, "x0*x1*y0*y1"),
            (p114, p114.var_names, "a^3 - b^3"),
            (p114, p114.var_names, "2*a*b - 5/7*c")]:
        side = Side.PRIMAL if names is fan.var_names else Side.DUAL
        poly = parse_poly(text, names, side, fan)
        printed = format_poly(poly, names)
        assert parse_poly(printed, names, side, fan) == poly
        assert format_poly(parse_poly(printed, names, side), names) == printed


def test_parse_round_trip_random(f1):
    rng = random.Random(3)
    mons = list(basis(f1, f1.degree((3, 2)))) + list(basis(f1, f1.degree((1, 0))))
    for _ in range(50):
        terms = {rng.choice(mons): Fraction(rng.randrange(-9, 10) or 1,
                                            rng.randrange(1, 9))
                 for _ in range(rng.randrange(1, 5))}
        poly = MultiPoly(Side.DUAL, terms)
        printed = format_poly(poly, f1.dual_var_names)
        assert parse_poly(printed, f1.dual_var_names, Side.DUAL) == poly


def test_parse_errors(f1):
    with pytest.raises(ParseError):
        parse_poly("a0 + q3", f1.var_names, Side.PRIMAL)
    with pytest.raises(ParseError):
        parse_poly("a0^-1", f1.var_names, Side.PRIMAL)
    with pytest.raises(ParseError):
        parse_poly("1/0*a0", f1.var_names, Side.PRIMAL)
    with pytest.raises(ParseError):
        parse_poly("a0 a1", f1.var_names, Side.PRIMAL)
    # empty terms and dangling operators are errors, not the constant 1
    for text in ("a0 +", "-", "+", "a0*", "*a0", "a0**a1", "a0 + -a1", "a0^",
                 "1/"):
        with pytest.raises(ParseError):
            parse_poly(text, f1.var_names, Side.PRIMAL)
    for text in ("-", "l*", "*l", "l - m", ""):
        with pytest.raises(ParseError):
            parse_laurent(text, ("l", "m"))
    # grammar refusals, not unknown names
    for text in ("a0^2^3", "2/3/4*a0", "+-a0", "a0*(a1)", "a0 a1^"):
        with pytest.raises(ParseError):
            parse_poly(text, f1.var_names, Side.PRIMAL)


def test_parse_accepts_surrounding_whitespace(f1):
    assert parse_poly(" a0^2 - a1^2 ", f1.var_names, Side.PRIMAL) \
        == parse_poly("a0^2 - a1^2", f1.var_names, Side.PRIMAL)
    assert parse_laurent("-1/4*l^-2*m ", ("l", "m")) \
        == parse_laurent("-1/4*l^-2*m", ("l", "m"))
    assert parse_poly("- 3 / 4 * a0 ^ 2", f1.var_names, Side.PRIMAL) \
        == parse_poly("-3/4*a0^2", f1.var_names, Side.PRIMAL)


ORACLE_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                          r"|(?P<int>\d+)"
                          r"|(?P<op>[*^/+()-]))")


def oracle_tokenize(text):
    text = text.rstrip()
    pos = 0
    out = []
    while pos < len(text):
        m = ORACLE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"bad character at ...{text[pos:pos + 10]!r}")
        if m.lastgroup == "name":
            out.append(("name", m.group("name")))
        elif m.lastgroup == "int":
            out.append(("int", int(m.group("int"))))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def tokenizing_parse_terms(text, names, allow_negative):
    """Oracle: the term reader as a tokenizer and a cursor over its
    token list, ended by a (None, None) sentinel."""
    index = {n: i for i, n in enumerate(names)}
    tokens = oracle_tokenize(text) + [(None, None)]
    pos = 0
    terms = []

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def take_int(what):
        kind, val = take()
        if kind != "int":
            raise ParseError(f"expected {what}")
        return val

    while tokens[pos][0] is not None:
        coeff = Fraction(1)
        if tokens[pos] in (("op", "+"), ("op", "-")):
            coeff = Fraction(-1 if take()[1] == "-" else 1)
        elif terms:
            raise ParseError("expected '+' or '-' between terms")
        expo = [0] * len(names)
        while True:
            kind, val = take()
            if kind == "int":
                if tokens[pos] == ("op", "/"):
                    take()
                    den = take_int("nonzero integer denominator")
                    if den == 0:
                        raise ParseError("expected nonzero integer denominator")
                    val = Fraction(val, den)
                coeff *= val
            elif kind == "name":
                if val not in index:
                    raise ParseError(f"unknown variable {val!r}")
                e = 1
                if tokens[pos] == ("op", "^"):
                    take()
                    sign = -1 if tokens[pos] == ("op", "-") else 1
                    if sign < 0:
                        take()
                    e = sign * take_int("integer exponent")
                if e < 0 and not allow_negative:
                    raise ParseError("negative exponents are not allowed here")
                expo[index[val]] += e
            else:
                raise ParseError("expected a number or variable")
            if tokens[pos] != ("op", "*"):
                break
            take()
        terms.append((coeff, tuple(expo)))
    return terms


def test_term_reader_matches_the_tokenizing_reader():
    from toric_apolarity.ring import _parse_terms

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("a0", "a1", "l", "m")
    symbols = ["a0", "a1", "l", "m", "q3", "a0a1", "_", "0", "1", "12",
               "\u0663", "+", "-", "*", "/", "^", "(", ")", " ", "\t", "!",
               "\u00e9"]
    # in half the strings, factors alternate with joins, so that many parse
    factor = st.sampled_from(["a0", "l", "m", "q3", "0", "12", "\u0663", "2/3",
                              "1 / 0", "a1^2", "m ^ \u0663", "l^-1", "l ^ - 0"])
    join = st.sampled_from(["+", "-", "*", " - ", "\t+ ", " * ", "", "^"])
    texts = st.one_of(
        st.lists(st.sampled_from(symbols), max_size=8).map("".join),
        st.tuples(factor, st.lists(st.tuples(join, factor), max_size=3)).map(
            lambda t: t[0] + "".join(map("".join, t[1]))))
    outcomes = {False: [], True: []}

    def read(parse, text, allow_negative):
        try:
            return parse(text, names, allow_negative)
        except ParseError:
            return ParseError

    @hypothesis.settings(max_examples=2000, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(texts)
    def check(text):
        for allow_negative in (False, True):
            got = read(_parse_terms, text, allow_negative)
            assert got == read(tokenizing_parse_terms, text, allow_negative)
            outcomes[allow_negative].append(got is ParseError)

    check()
    for refused in outcomes.values():
        assert len(refused) >= 2000
        assert refused.count(False) >= 300 and refused.count(True) >= 300


def test_fan_is_freed_after_use():
    fan = load_fan(FIXTURES / "f1.fan")
    alive = weakref.ref(fan)
    assert len(basis(fan, fan.degree((3, 2)))) == 9
    del fan
    gc.collect()
    assert alive() is None


def test_certificate_gate_agrees_with_the_weight_search():
    # every fan the search finds a weight for passes the walk gate, and
    # every fan the gate refuses has no weight within radius 16
    from toric_apolarity import ring

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    verdicts = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(2, 3), st.integers(0, 3), st.data())
    def check(dim, free_rank, data):
        ray = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(
            lambda v: gcd(*v) == 1)
        rays = data.draw(st.lists(ray, min_size=dim + free_rank,
                                  max_size=dim + free_rank, unique_by=tuple))
        try:
            fan = build_fan(rays, [[i] for i in range(len(rays))])
        except TorusFactor:
            hypothesis.assume(False)
        if search_weight(fan) is not None:
            ring._walk_systems(fan)
            verdicts.append("weight")
        else:
            try:
                ring._walk_systems(fan)
            except NoCertificate as refusal:
                assert "unbounded" in str(refusal)
                verdicts.append("gate")
            else:
                verdicts.append("search")  # a weight past radius 16

    check()
    assert verdicts.count("weight") >= 20 and verdicts.count("gate") >= 20


def test_basis_cap_lists_a_piece_at_the_cap_and_refuses_one_more(cube,
                                                                  monkeypatch):
    from toric_apolarity import ring

    # each case builds a fresh fan, whose basis cache is empty
    cases = [(lambda: load_fan(FIXTURES / "f1.fan"), (6, 3), ()),
             (lambda: load_fan(FIXTURES / "p114.fan"), (12,), ()),
             (lambda: load_fan(FIXTURES / "fake_plane.fan"), (9,), (1,)),
             (lambda: build_fan(cube.rays, cube.max_cones), (2, 3, 1), ())]
    sizes = [len(basis(make(), make().degree(free, torsion)))
             for make, free, torsion in cases]
    for (make, free, torsion), size in zip(cases, sizes):
        degree = make().degree(free, torsion)
        assert size >= 10
        monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", size)
        assert len(basis(make(), degree)) == size
        monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", size - 1)
        fan = make()
        with pytest.raises(BasisTooLarge) as refused:
            basis(fan, fan.degree(free, torsion))
        assert str(degree) in str(refused.value)
        assert str(size - 1) in str(refused.value)
        assert not fan._basis_cache


# --- the walk against the previous single-order walk --------------------

def scalar_eliminate(rows, k):
    """The previous walk's Fourier–Motzkin step, with a scalar bound b."""
    pos = [r for r in rows if r[0][k] > 0]
    neg = [r for r in rows if r[0][k] < 0]
    if not pos or not neg:
        raise NoCertificate(f"P_D is unbounded along coordinate {k}, so "
                            f"graded pieces may be infinite")
    out = [r for r in rows if r[0][k] == 0]
    for (cp, bp), (cq, bq) in product(pos, neg):
        s, t = -cq[k], cp[k]
        out.append((tuple(s * x + t * y for x, y in zip(cp, cq)),
                    s * bp + t * bq))
    return out


def natural_order_basis(fan, degree):
    """Oracle: the previous walk, which eliminated at every degree and
    walked the coordinates in their natural order, one tuple per step."""
    a = fan.weil_representative(degree)
    n = fan.ambient_rank
    rows = list(zip(fan.rays, a))
    systems = [None] * n
    for k in reversed(range(n)):
        systems[k] = [r for r in rows if r[0][k]]
        rows = scalar_eliminate(rows, k)
    if any(b < 0 for _, b in rows):
        return ()
    cols = list(zip(*fan.rays))
    found = []
    m = [0] * n

    def walk(k, e):
        bounds = [(c[k], b + sum(map(mul, c[:k], m)))
                  for c, b in systems[k]]
        lo = max(-(rest // ck) for ck, rest in bounds if ck > 0)
        hi = min(rest // -ck for ck, rest in bounds if ck < 0)
        if lo > hi:
            return
        col = cols[k]
        e = tuple(map(add, e, [lo * u for u in col]))
        if k + 1 == n:
            for _ in range(lo, hi + 1):
                found.append(e)
                e = tuple(map(add, e, col))
            return
        for x in range(lo, hi + 1):
            m[k] = x
            walk(k + 1, e)
            e = tuple(map(add, e, col))

    walk(0, tuple(a))
    found.sort(reverse=True)
    found.sort(key=sum, reverse=True)
    return tuple(found)


def record_line_sets(monkeypatch):
    """Patch the ring's ``zip`` to keep the monomials of each line set the
    walk lists, in the order listed: the walk zips one ``chain`` of lines
    per exponent, and nothing else it zips is a ``chain``."""
    from toric_apolarity import ring

    listed = []

    def recording_zip(*parts):
        if parts and all(isinstance(p, chain) for p in parts):
            listed.append(list(zip(*parts)))
            return iter(listed[-1])
        return zip(*parts)

    monkeypatch.setattr(ring, "zip", recording_zip, raising=False)
    return listed


def split_lines(monomials, step):
    """The lengths of the maximal runs of listed monomials each ``step``
    after the one before."""
    lengths = []
    for before, e in zip([None, *monomials], monomials):
        if before is not None and tuple(map(add, before, step)) == e:
            lengths[-1] += 1
        else:
            lengths.append(1)
    return lengths


def record_outer_axes(monkeypatch):
    """Patch the ring so each walk lists the coordinate it put outermost:
    the walk takes its order from the fan's list of walks by that index."""
    from toric_apolarity import ring

    chosen, systems = [], ring._walk_systems

    class Walks(list):
        def __getitem__(self, j):
            chosen.append(j)
            return super().__getitem__(j)

    monkeypatch.setattr(ring, "_walk_systems", lambda fan: Walks(systems(fan)))
    return chosen


def test_basis_matches_natural_order_walk_on_seeded_degrees(cube, monkeypatch):
    # fresh fans, so every degree is walked while the walks are recorded
    f1, p114, fake = (load_fan(FIXTURES / f"{name}.fan")
                      for name in ("f1", "p114", "fake_plane"))
    cube = build_fan(cube.rays, cube.max_cones)
    chosen = record_outer_axes(monkeypatch)
    listed = record_line_sets(monkeypatch)
    rng = random.Random(20)
    cases = [(f1, f1.degree((2 * k, k))) for k in range(-1, 41)]
    cases += [(f1, f1.degree((rng.randint(-3, 40), rng.randint(-3, 20))))
              for _ in range(60)]
    cases += [(p114, p114.degree((d,))) for d in range(-3, 61)]
    cases += [(fake, fake.degree((d,), (t,)))
              for d in range(-3, 31) for t in range(3)]
    cases += [(cube, cube.degree(tuple(rng.randint(-1, 9) for _ in range(3))))
              for _ in range(60)]
    nonempty, axes = 0, {}
    for fan, degree in cases:
        want = natural_order_basis(fan, degree)
        walked = degree not in fan._basis_cache
        listed.clear()
        chosen.clear()
        assert basis(fan, degree) == want, degree
        # a walk lists each monomial once, a cache hit lists none
        assert sorted(chain.from_iterable(listed)) \
            == (sorted(want) if walked else [])
        nonempty += bool(want)
        axes.setdefault(id(fan), set()).update(chosen)
        if fan is p114 and degree.free[0] >= 1:
            # the short axis m_1 of P_D goes outermost; at 0 both ranges
            # are one point, and the tie goes to m_0
            assert chosen == [1]
    assert nonempty >= 250
    # every walk order is taken on f1 and P1^3
    assert axes[id(f1)] == {0, 1} and axes[id(cube)] == {0, 1, 2}


def test_basis_matches_natural_order_walk_on_random_complete_fans():
    # the fans and degrees of test_basis_matches_walk_on_random_complete_fans,
    # drawn from more examples, since this oracle needs no weight
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def angle_key(ray):
        x, y = ray
        half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
        return (half, 0, Fraction(0)) if y == 0 else (half, 1, Fraction(-x, y))

    vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda v: v != (0, 0) and gcd(*v) == 1)
    walked = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(vectors, min_size=3, max_size=5, unique=True),
                      st.lists(st.integers(-2, 6), min_size=5, max_size=5))
    def check(rays, shift):
        rays = sorted(rays, key=angle_key)
        k = len(rays)
        hypothesis.assume(all(rays[i][0] * rays[(i + 1) % k][1]
                              - rays[i][1] * rays[(i + 1) % k][0] > 0
                              for i in range(k)))
        fan = build_fan(rays, [[i, (i + 1) % k] for i in range(k)])
        degree = fan.monomial_degree([max(x, 0) for x in shift[:k]]) \
            - fan.monomial_degree([max(-x, 0) for x in shift[:k]])
        want = natural_order_basis(fan, degree)
        assert basis(fan, degree) == want
        walked.append(len(want))

    check()
    assert len(walked) >= 100 and sum(map(bool, walked)) >= 60


def test_walk_systems_are_eliminated_once_per_fan(cube, monkeypatch):
    from toric_apolarity import ring

    calls = []
    eliminate = ring._eliminate
    monkeypatch.setattr(ring, "_eliminate",
                        lambda rows, k, *rest: calls.append(k)
                        or eliminate(rows, k, *rest))
    for fan, first, later in [
            (load_fan(FIXTURES / "p114.fan"), (9,), [(10,), (-2,), (60,)]),
            (load_fan(FIXTURES / "fake_plane.fan"), (6,), [(7,), (4,)]),
            (build_fan(cube.rays, cube.max_cones), (1, 2, 3),
             [(3, 2, 1), (5, 0, 2), (-1, 0, 0)])]:
        assert fan._walk_cache == []
        calls.clear()
        basis(fan, fan.degree(first, (0,) * len(fan.class_group.torsion_orders)))
        # one order per coordinate, each eliminating every coordinate
        n = fan.ambient_rank
        assert len(fan._walk_cache) == n and len(calls) == n * n
        calls.clear()
        for free in later:
            torsion = (1,) * len(fan.class_group.torsion_orders)
            basis(fan, fan.degree(free, torsion))
        ring._walk_systems(fan)
        assert calls == []


def seeded_fans(rng):
    """Fans of one-ray cones in 2-4 dimensions: per size, two whose rays
    positively span and two of seeded rays in [-3, 3], most of them
    open."""
    fans = []
    for dim, count in [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6),
                       (4, 5), (4, 6), (4, 7)]:
        sets = [spanning_rays(dim, count, rng.random()) for _ in range(2)]
        for _ in range(2):
            rays = []
            while len(rays) < count:
                ray = [rng.randint(-3, 3) for _ in range(dim)]
                if gcd(*ray) == 1:
                    rays.append(ray)
            sets.append(rays)
        for rays in sets:
            try:
                fans.append(build_fan(rays, [[i] for i in range(count)]))
            except TorusFactor:
                pass
    return fans


def test_pruned_walk_matches_the_unpruned_walk_on_seeded_fans(cube):
    # the walk's systems drop rows by Chernikov's rule, the previous walk
    # eliminated in full at every degree: bases and refusals agree
    rng = random.Random(22)
    fans = [load_fan(FIXTURES / f"{name}.fan")
            for name in ("f1", "p114", "fake_plane")]
    fans += [build_fan(cube.rays, cube.max_cones)] + seeded_fans(rng)
    outcomes = []
    for fan in fans:
        for _ in range(20):
            shift = [rng.randint(-1, 3) for _ in fan.rays]
            degree = fan.monomial_degree([max(x, 0) for x in shift]) \
                - fan.monomial_degree([max(-x, 0) for x in shift])
            results = []
            for walk in (natural_order_basis, basis):
                try:
                    results.append(walk(fan, degree))
                except NoCertificate as refusal:
                    results.append(str(refusal))
            assert results[0] == results[1], (fan.rays, degree)
            outcomes.append(results[0])
    refused = sum(isinstance(x, str) for x in outcomes)
    assert refused >= 100 and sum(map(bool, outcomes)) - refused >= 250


def test_walk_systems_of_spanning_fans_are_built_in_time():
    # without Chernikov's rule the systems of the 4-D fan of 9 rays drawn
    # the same way take 17 s, and those of the 5-D fan fill 2 GB; degree 0
    # is the constant 1 alone
    from toric_apolarity import ring

    for dim, count, seconds in [(5, 11, 1), (6, 13, 2)]:
        fan = build_fan(spanning_rays(dim, count, dim),
                        [[i] for i in range(count)])
        with alarm(seconds):
            assert len(ring._walk_systems(fan)) == dim
            assert basis(fan, fan.degree((0,) * (count - dim))) \
                == ((0,) * count,)


def test_walk_systems_of_a_7d_spanning_fan_fit_the_pair_cap():
    # 381,213 row pairs, about 2 s
    from toric_apolarity import ring

    fan = build_fan(spanning_rays(7, 15, 7), [[i] for i in range(15)])
    with alarm(20):
        assert len(ring._walk_systems(fan)) == 7
        assert basis(fan, fan.degree((0,) * 8)) == ((0,) * 15,)


def test_walk_systems_past_the_pair_cap_are_refused(monkeypatch):
    # the cap counts the row pairs of every step of one fan's build: a cap
    # of that count walks, one less refuses at the step that passes it and
    # leaves the fan's caches empty; an open coordinate is found first
    from toric_apolarity import ring

    rays, cones = spanning_rays(5, 11, 5), [[i] for i in range(11)]
    counters = []
    eliminate = ring._eliminate
    monkeypatch.setattr(ring, "_eliminate",
                        lambda rows, k, done, pairs: counters.append(pairs)
                        or eliminate(rows, k, done, pairs))
    ring._walk_systems(build_fan(rays, cones))
    assert len(counters) == 25 and all(c is counters[0] for c in counters)
    total = counters[0][0]
    assert total == 11_439
    monkeypatch.setattr(ring, "MAX_ELIMINATION_PAIRS", total)
    assert len(ring._walk_systems(build_fan(rays, cones))) == 5
    monkeypatch.setattr(ring, "MAX_ELIMINATION_PAIRS", total - 1)
    fan = build_fan(rays, cones)
    with pytest.raises(BasisTooLarge) as refused:
        basis(fan, fan.degree((0,) * 6))
    assert str(refused.value) == (f"the fan's walk systems combine more "
                                  f"than {total - 1} row pairs")
    assert fan._walk_cache == [] and not fan._basis_cache
    monkeypatch.setattr(ring, "MAX_ELIMINATION_PAIRS", 0)
    with pytest.raises(NoCertificate):
        ring._walk_systems(build_fan([[1, 0], [0, 1], [-1, 0]],
                                     [[0, 1], [1, 2]]))


def test_open_fan_refusal_names_the_fans_own_coordinate():
    # the natural order is eliminated first, so the refusal names the
    # first coordinate, counted from the last, that is open in that order
    from toric_apolarity import ring

    for rays, cones, k in [
            ([[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]], 1),
            ([[1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
             [[0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 4]], 0),
            ([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [-1, 0, 0]],
             [[4, 0, 2], [4, 0, 3], [4, 1, 2], [4, 1, 3]], 0),
            ([[1, 0, 0], [-1, 0, 0], [0, 0, 1], [0, 0, -1], [0, 1, 0]],
             [[0, 2, 4], [0, 3, 4], [1, 2, 4], [1, 3, 4]], 1)]:
        fan = build_fan(rays, cones)
        message = (f"P_D is unbounded along coordinate {k}, so graded "
                   f"pieces may be infinite")
        for refused in (lambda: basis(fan, fan.degree((1,) * (len(rays)
                                                              - len(rays[0])))),
                        lambda: ring._walk_systems(fan)):
            with pytest.raises(NoCertificate) as refusal:
                refused()
            assert str(refusal.value) == message
        assert fan._walk_cache == [] and not fan._basis_cache


def test_basis_cap_is_checked_before_each_line_set_is_listed(monkeypatch):
    # p114 at 60: m_1 in 0..15 outermost, each line along m_0 of 61 - 4*m_1
    # monomials, all in one line set; a cap below its 496 monomials lists
    # none of them
    from toric_apolarity import ring

    fan = load_fan(FIXTURES / "p114.fan")
    degree = fan.degree((60,))
    ring._walk_systems(fan)  # built before zip is watched
    listed = record_line_sets(monkeypatch)
    assert len(basis(load_fan(FIXTURES / "p114.fan"), degree)) == 496
    col = tuple(ray[0] for ray in fan.rays)
    assert len(listed) == 1
    assert split_lines(listed[0], col) == list(range(61, 0, -4))
    for cap in (61 + 57 + 53, 61 + 57 + 53 - 1, 60, 496 - 1):
        monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", cap)
        listed.clear()
        with pytest.raises(BasisTooLarge) as refused:
            basis(fan, degree)
        assert f"more than {cap} monomials" in str(refused.value)
        assert listed == []
        assert not fan._basis_cache
    monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", 496)
    assert len(basis(fan, degree)) == 496


def test_basis_of_the_1d_fan_is_one_line(monkeypatch):
    # P^1, rays +1 and -1: the piece of degree d is the one line of the
    # d + 1 monomials a^(d-i) b^i, stepped by the ray matrix's column
    fan = build_fan([[1], [-1]], [[0], [1]])
    listed = record_line_sets(monkeypatch)
    for d in range(-3, 30):
        listed.clear()
        degree = fan.degree((d,))
        want = natural_order_basis(fan, degree)
        assert basis(fan, degree) == want
        assert len(want) == max(d + 1, 0)
        assert [split_lines(found, (1, -1)) for found in listed] \
            == ([[d + 1]] if d >= 0 else [])


def real_range(fan, degree, j):
    """The least and greatest m_j on the real polygon P_D of a 2-D fan, as
    Fractions, from its vertices: the feasible meets of two ray lines."""
    a = fan.weil_representative(degree)
    vertices = []
    for (u, s), (v, t) in product(zip(fan.rays, a), repeat=2):
        det = u[0] * v[1] - u[1] * v[0]
        if det:
            m = (Fraction(-s * v[1] + t * u[1], det),
                 Fraction(-t * u[0] + s * v[0], det))
            if all(w[0] * m[0] + w[1] * m[1] >= -b
                   for w, b in zip(fan.rays, a)):
                vertices.append(m[j])
    return min(vertices), max(vertices)


def test_points_with_an_empty_line_list_nothing_on_seeded_2d_fans(
        monkeypatch):
    # a thin P_D whose vertices are not lattice points can miss every
    # lattice point over some integer m_x of its range; the walk lists no
    # line there, its basis still matches the oracle, and its count is
    # exact: a cap of the basis size lets the piece in, one less refuses
    from math import ceil, floor

    from toric_apolarity import ring

    def degree_of(fan, shift):
        return fan.monomial_degree([max(x, 0) for x in shift]) \
            - fan.monomial_degree([max(-x, 0) for x in shift])

    rng = random.Random(26)
    chosen = record_outer_axes(monkeypatch)
    listed = record_line_sets(monkeypatch)
    cap, skipped = ring.MAX_BASIS_MONOMIALS, 0
    for seed in range(40):
        rays = spanning_rays(2, rng.choice([3, 4, 5]), seed)
        cones = [[i] for i in range(len(rays))]
        fan = build_fan(rays, cones)
        for _ in range(10):
            shift = [rng.randint(-2, 6) for _ in rays]
            degree = degree_of(fan, shift)
            chosen.clear()
            listed.clear()
            walked = degree not in fan._basis_cache
            want = natural_order_basis(fan, degree)
            assert basis(fan, degree) == want, (rays, degree)
            if not (want and walked):
                continue
            j, = chosen
            lo, hi = real_range(fan, degree, j)
            step = tuple(ray[1 - j] for ray in rays)
            lines = sum((split_lines(found, step) for found in listed), [])
            assert sum(lines) == len(want)
            assert len(lines) <= floor(hi) - ceil(lo) + 1
            if len(lines) < floor(hi) - ceil(lo) + 1:
                skipped += 1
                monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", len(want))
                fresh = build_fan(rays, cones)
                assert basis(fresh, degree_of(fresh, shift)) == want
                monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", len(want) - 1)
                fresh = build_fan(rays, cones)
                with pytest.raises(BasisTooLarge):
                    basis(fresh, degree_of(fresh, shift))
                monkeypatch.setattr(ring, "MAX_BASIS_MONOMIALS", cap)
    assert skipped >= 10


def test_rows_of_every_slope_sign_bound_the_lines(monkeypatch):
    # the last coordinate's bounds run down along x where a row's slope and
    # coefficient share a sign, up where they differ, and stay put at slope
    # 0: each kind bounds a walked piece that matches the oracle
    from toric_apolarity import ring

    rng = random.Random(27)
    chosen = record_outer_axes(monkeypatch)
    fans = [load_fan(FIXTURES / f"{name}.fan")
            for name in ("f1", "p114", "fake_plane")]
    fans += [build_fan(rays, [[i] for i in range(len(rays))])
             for rays in (spanning_rays(dim, count, seed)
                          for dim, count in [(2, 4), (2, 5), (3, 5)]
                          for seed in range(4))]
    kinds = set()
    for fan in fans:
        for _ in range(15):
            shift = [rng.randint(-1, 4) for _ in fan.rays]
            degree = fan.monomial_degree([max(x, 0) for x in shift]) \
                - fan.monomial_degree([max(-x, 0) for x in shift])
            chosen.clear()
            walked = degree not in fan._basis_cache
            want = natural_order_basis(fan, degree)
            assert basis(fan, degree) == want, (fan.rays, degree)
            if len(want) > 1 and walked:
                j, = chosen
                last = ring._walk_systems(fan)[j][1][-1]
                kinds.update((ck > 0, (prefix[-1] > 0) - (prefix[-1] < 0))
                             for ck, prefix, _ in last)
    assert kinds == set(product((False, True), (-1, 0, 1)))
