"""Sparse multigraded polynomials over exact rationals.

The coordinate ring S (side PRIMAL) and its dual module T (side DUAL)
share one term representation: a map from exponent tuples to nonzero
Fractions.  The monomials of a graded piece S_[D] are the lattice points
of the divisor polytope P_D (Cox, Little and Schenck, Toric Varieties,
Prop. 5.4.1), all finite exactly when the rays positively span N_R, as
the walk's Fourier–Motzkin elimination decides, pruned by Chernikov's
rule.  Its systems belong to the fan, one per walk order; each degree is
walked with its shortest axis outermost, as lines along its last axis
(``BasisLines``).  The walk has two consumers: ``basis`` lists the
monomials, and ``BasisLines.standard`` counts those that no given
exponent vector divides, which is how a monomial ideal's quotient
dimensions are sampled, with no monomial built.  Bases are ordered by
total exponent degree, then lexicographically, largest first, which fixes
every matrix layout.

Polynomials and Laurent monomials are read in one regular term syntax.
Terms are joined by ``+`` or ``-``; only the first may go unsigned, and
none starts with ``*``.  A term is a ``*``-product of factors: ASCII
digits with an optional ``/denominator`` other than 0, or a name
``[A-Za-z_][A-Za-z_0-9]*`` with an optional ``^`` power.  A power may be
negative (``^-2``) only in a family file's Laurent monomials.  Blanks
may separate any two symbols, and blank text holds no terms.
"""

from __future__ import annotations

import re
import sys
from itertools import chain, product, repeat
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import add, floordiv, ge, mul, neg, sub

from .abelian import DegreeClass
from .errors import (BasisTooLarge, NoCertificate, NonHomogeneousGenerator,
                     ParseError, SideMismatch)


class Side(Enum):
    PRIMAL = "S"
    DUAL = "T"


def monomial_key(exponents):
    """Sort key of the monomial order: graded (total degree) then lex."""
    return (sum(exponents), exponents)


class MultiPoly:
    """Immutable sparse polynomial; its degree, when homogeneous, is read
    off its exponents by ``homogeneous_degree``."""

    __slots__ = ("side", "terms")

    def __init__(self, side: Side, terms):
        self.side = side
        self.terms = {tuple(m): Fraction(c) for m, c in dict(terms).items()
                      if c != 0}

    @classmethod
    def zero(cls, side: Side) -> "MultiPoly":
        return cls(side, {})

    @classmethod
    def one(cls, side: Side, nvars: int) -> "MultiPoly":
        return cls(side, {(0,) * nvars: Fraction(1)})

    @classmethod
    def monomial(cls, side: Side, exponents, coeff=1) -> "MultiPoly":
        return cls(side, {tuple(exponents): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.side == other.side
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.side, frozenset(self.terms.items())))

    def _require_side(self, other: "MultiPoly"):
        if self.side != other.side:
            raise SideMismatch(
                f"cannot combine {self.side.name} with {other.side.name}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._require_side(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return MultiPoly(self.side, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.side, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return MultiPoly.zero(self.side)
        return MultiPoly(self.side, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.side is not Side.PRIMAL or other.side is not Side.PRIMAL:
            raise SideMismatch("multiplication is defined on the primal ring only")
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return MultiPoly(Side.PRIMAL, terms)

    def integer_terms(self):
        """The lcm D of the coefficient denominators, and the integer
        coefficients of D times the polynomial."""
        scale = lcm(*(c.denominator for c in self.terms.values()))
        return scale, {m: c.numerator * (scale // c.denominator)
                       for m, c in self.terms.items()}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0]),
                      reverse=True)

    def __repr__(self):
        return f"MultiPoly({self.side.name}, {dict(self.terms)!r})"


def homogeneous_degree(fan, poly: MultiPoly) -> DegreeClass | None:
    """The common degree of all terms, or None if inhomogeneous/zero, read
    off their coordinates, so one DegreeClass is built; the same pass
    refuses exponents not one nonnegative int per ray with ParseError."""
    group, keys, nvars = fan.projection.group, set(), len(fan.rays)
    for m in poly.terms:
        if len(m) != nvars or not all(type(e) is int and e >= 0 for e in m):
            raise ParseError(f"exponents {m} are not one nonnegative integer "
                             f"per ray")
        keys.add(fan.projection.coordinates(m))
    return DegreeClass(group, *keys.pop()) if len(keys) == 1 else None


def checked_degree(fan, poly: MultiPoly, side: Side, what: str) -> DegreeClass:
    """The degree of ``poly``, named ``what``: the one intake of forms and
    ideal generators.  SideMismatch off ``side``, ParseError as in
    ``homogeneous_degree``, NonHomogeneousGenerator if zero or inhomogeneous."""
    if poly.side is not side:
        raise SideMismatch(f"{what} must be {side.name.lower()}")
    degree = homogeneous_degree(fan, poly)
    if degree is None:
        raise NonHomogeneousGenerator(
            f"{what} is {'not homogeneous' if poly.terms else 'zero'}")
    return degree


# Most row pairs the Fourier–Motzkin steps of one fan's walk systems may
# combine; past it the fan is refused with BasisTooLarge before the step.
# The seeded 7-D fan of 15 rays in the tests combines 381,213 pairs in
# about 2 s, the 8-D fan of 17 rays 2.9 million.
MAX_ELIMINATION_PAIRS = 500_000


def _eliminate(rows, k, done, pairs):
    """One Fourier–Motzkin step: the rows ``(c, lam)``, meaning
    c·m + lam·a >= 0 for a Weil divisor a, with coordinate k projected
    out, the done-th eliminated.  The combinations are taken on lam, so
    they hold for every a; lam >= 0 is nonzero at the rays a row combines,
    and a row of more than done + 1 rays is implied by the others, so it
    is skipped (Chernikov's rule).  ``pairs[0]`` counts the row pairs of
    the fan's steps so far."""
    pos = [r for r in rows if r[0][k] > 0]
    neg = [r for r in rows if r[0][k] < 0]
    if not pos or not neg:
        raise NoCertificate(f"P_D is unbounded along coordinate {k}, so "
                            f"graded pieces may be infinite")
    pairs[0] += len(pos) * len(neg)
    if pairs[0] > MAX_ELIMINATION_PAIRS:
        raise BasisTooLarge(f"the fan's walk systems combine more than "
                            f"{MAX_ELIMINATION_PAIRS} row pairs")
    out = [r for r in rows if r[0][k] == 0]
    for (cp, lp), (cq, lq) in product(pos, neg):
        s, t = -cq[k], cp[k]
        lam = tuple(s * x + t * y for x, y in zip(lp, lq))
        if len(lam) - lam.count(0) <= done + 1:
            out.append((tuple(s * x + t * y for x, y in zip(cp, cq)), lam))
    return out


def _walk_systems(fan):
    """Per coordinate j, the walk order with j outermost and the others in
    their natural order, as the ray matrix's columns in that order and
    the order's ray systems; the fan keeps them, since they depend on the
    rays alone.

    systems[i] bounds the i-th coordinate of the order from the ones
    before it: the rows (c_k, prefix, lam) of the ray system with the
    later coordinates projected out whose coefficient c_k on it is
    nonzero, prefix holding the earlier coordinates' coefficients in walk
    order.  At a Weil divisor a the row reads c_k*m_k + prefix·m >= -lam·a.
    The natural order is eliminated first, so an open fan is refused
    naming, in the fan's own numbering, the first coordinate found open
    in that order.  A fan whose steps combine more than
    MAX_ELIMINATION_PAIRS row pairs in all is refused with BasisTooLarge."""
    if not fan._walk_cache:
        n, rays = fan.ambient_rank, fan.rays
        start = [(ray, tuple(int(r == s) for s in range(len(rays))))
                 for r, ray in enumerate(rays)]
        walks, pairs = [], [0]
        for j in range(n):
            order = (j, *(k for k in range(n) if k != j))
            rows, systems = start, [None] * n
            for i in reversed(range(n)):
                k = order[i]
                systems[i] = [(c[k], tuple(c[o] for o in order[:i]), lam)
                              for c, lam in rows if c[k]]
                rows = _eliminate(rows, k, n - i, pairs)
            walks.append(([tuple(ray[k] for ray in rays) for k in order],
                          systems))
        fan._walk_cache.extend(walks)
    return fan._walk_cache


def _span(bounds):
    """The integer range of a coordinate under the rows ``(c, rest)``,
    meaning c*x + rest >= 0; empty when lo > hi."""
    lo = max(-(rest // c) for c, rest in bounds if c > 0)
    hi = min(rest // -c for c, rest in bounds if c < 0)
    return lo, hi


# Most monomials one graded piece may have; a larger piece is refused with
# BasisTooLarge while it is walked, before it fills memory.  On f1 the
# piece (400,200) has 60,501 monomials.
MAX_BASIS_MONOMIALS = 200_000


def _run(start, step, count):
    """start, start + step, ...: ``count`` values, a ``repeat`` at step 0."""
    return (range(start, start + step * count, step) if step
            else repeat(start, count))


def _each(op, runs):
    """``op`` taken position by position over the runs; one run as it is."""
    return map(op, *runs) if len(runs) > 1 else runs[0]


def _line_starts(c, p, u, x0, lo):
    """One coordinate at the first monomial of each line of a group: c at
    x = y = 0, stepped by p along x and by u along y (``BasisLines``)."""
    starts = _run(c + p * x0, p, len(lo))
    return map(add, starts, map(mul, lo, repeat(u))) if u else starts


class BasisLines:
    """The monomials of class [D], D = sum a_rho D_rho, as the lines of one
    walk, with no monomial built.  ``size`` is their number, ``standard``
    counts those that no given exponent vector divides, and
    ``_enumerate_basis`` lists them.

    They are the lattice points m of P_D = {m : <m, u_rho> >= -a_rho},
    mapped to e_rho = <m, u_rho> + a_rho.  The ray systems belong to the
    fan (``_walk_systems``), so a degree costs dot products lam·a and no
    elimination.  The coordinate whose own range on P_D is shortest goes
    outermost, the others follow in their natural order, and each
    coordinate's range follows from the ones fixed before it.  The walk
    carries e = a + sum m_j * col_j, col_j being column j of the ray
    matrix, and takes the last two coordinates x, y as groups of lines
    along y: each bound on y is affine in x, so all lines' ends are C-level
    ``map``s over ``range``s, and each group is counted against the cap as
    it is walked.  ``groups`` holds each group that has a monomial as
    (e, x0, lo, counts): e the exponent at x = y = 0, and for the lines
    x = x0, x0 + 1, ... the first y of each and its number of monomials.
    ``cols`` is (col_x, col_y), so the t-th monomial of a line is
    e + x * col_x + (lo + t) * col_y.
    """

    __slots__ = ("size", "cols", "groups")

    def __init__(self, fan, degree: DegreeClass):
        self.size, self.cols, self.groups = 0, ((), ()), []
        a = fan.weil_representative(degree)
        walks = _walk_systems(fan)
        widths = []
        for _, systems in walks:
            lo, hi = _span([(ck, sum(map(mul, lam, a)))
                            for ck, _, lam in systems[0]])
            if lo > hi:  # P_D has no lattice point
                return
            widths.append(hi - lo)
        cols, systems = walks[widths.index(min(widths))]
        levels = [[(ck, prefix, sum(map(mul, lam, a)))
                   for ck, prefix, lam in system] for system in systems]
        n = len(cols)
        self.cols = (cols[-2] if n > 1 else (0,) * len(a), cols[-1])
        m = [0] * n  # the coordinates fixed so far, in walk order

        def lines(e, x0, x1):  # e is the exponent at x = y = 0
            lows, stops = [], []  # per row, the lines' lower ends or stops
            for ck, prefix, b in levels[-1]:
                *prefix, s = prefix or (0,)  # a 1-D fan's x is 0
                r = b + sum(map(mul, prefix, m))
                # ck*y + r + s*x >= 0 is y >= (ck - 1 - r - s*x) // ck when
                # ck > 0, and y < (r + s*x - ck) // -ck when ck < 0
                t, dt, d = (ck - 1 - r, -s, ck) if ck > 0 else (r - ck, s, -ck)
                (lows if ck > 0 else stops).append(
                    map(floordiv, _run(t + dt * x0, dt, x1 - x0 + 1),
                        repeat(d)))
            lo = list(_each(max, lows))
            # P_D has a real point over each x of its range, so stop >= lo,
            # with stop == lo where the line has no lattice point
            counts = list(map(sub, _each(min, stops), lo))
            count = sum(counts)
            self.size += count
            if self.size > MAX_BASIS_MONOMIALS:
                raise BasisTooLarge(
                    f"the graded piece of degree {degree} has more than "
                    f"{MAX_BASIS_MONOMIALS} monomials")
            if count:
                self.groups.append((e, x0, lo, counts))

        def walk(i, e):
            lo, hi = _span([(ck, b + sum(map(mul, prefix, m)))
                            for ck, prefix, b in levels[i]])
            if lo > hi:
                return
            if i + 2 == n:  # x's range in slices, so the line lists stay bounded
                for x0 in range(lo, hi + 1, MAX_BASIS_MONOMIALS + 1):
                    lines(e, x0, min(hi, x0 + MAX_BASIS_MONOMIALS))
                return
            col = cols[i]
            e = tuple(map(add, e, [lo * u for u in col]))
            for x in range(lo, hi + 1):
                m[i] = x
                walk(i + 1, e)
                e = tuple(map(add, e, col))

        if n > 1:
            walk(0, tuple(a))
        else:  # a 1-D fan: one line
            lines(tuple(a), 0, 0)

    def standard(self, exponents) -> int:
        """How many of the monomials no vector of ``exponents`` divides.

        Coordinate r of a line's t-th monomial is s_r + u_r*t, s being the
        line's first monomial and u = col_y.  So a vector g divides it iff
        t >= ceil((g_r - s_r) / u_r) wherever u_r > 0, t <= floor((s_r -
        g_r) / -u_r) wherever u_r < 0, and s_r >= g_r wherever u_r = 0: g's
        multiples on a line are one interval of t, found for all lines of a
        group by C-level ``map``s.  The vectors' intervals are merged line
        by line, and what they cover is divided."""
        col_x, col_y = self.cols
        divided = 0
        for e, x0, lo, counts in self.groups:
            intervals = []  # per vector, each line's (first t, stop t)
            for g in exponents:
                firsts, stops = [repeat(0)], [counts]
                for gr, c, p, u in zip(g, e, col_x, col_y):
                    if not gr:  # every exponent is at least 0
                        continue
                    d = _line_starts(c - gr, p, u, x0, lo)  # s_r - g_r
                    if u > 0:
                        firsts.append(map(neg, map(floordiv, d, repeat(u))))
                    elif u < 0:
                        stops.append(map(add, map(floordiv, d, repeat(-u)),
                                         repeat(1)))
                    else:
                        stops.append(map(mul, map(ge, d, repeat(0)), counts))
                intervals.append(zip(_each(max, firsts), _each(min, stops)))
            for line in zip(*intervals):
                reach = 0  # the t before which every monomial is divided
                for first, stop in sorted(line):
                    first = max(first, reach)
                    if stop > first:
                        divided += stop - first
                        reach = stop
        return self.size - divided


def _enumerate_basis(fan, degree: DegreeClass):
    """basis(D) listed from its lines (``BasisLines``): each exponent is a
    ``chain`` of per-line ``range``s stepped by col_y (``repeat``s at step
    0).  The final sort fixes the order."""
    lines = BasisLines(fan, degree)
    col_x, col_y = lines.cols
    found = []
    for e, x0, lo, counts in lines.groups:
        coords = []
        for c, p, u in zip(e, col_x, col_y):
            starts = _line_starts(c, p, u, x0, lo)
            if u:
                starts = list(starts)
                ends = map(add, starts, map(mul, counts, repeat(u)))
                coords.append(map(range, starts, ends, repeat(u)))
            else:
                coords.append(map(repeat, starts, counts))
        found.extend(zip(*map(chain.from_iterable, coords)))
    # monomial_key order: a stable sort keeps lex order within each degree
    found.sort(reverse=True)
    found.sort(key=sum, reverse=True)
    return tuple(found)


def basis(fan, degree: DegreeClass):
    """All monomials of the given degree, in the fixed matrix order; the
    fan caches them per degree.  No weight is needed: the walk's
    elimination refuses with NoCertificate a fan whose rays do not
    positively span, the only fans with infinite graded pieces."""
    found = fan._basis_cache.get(degree)
    if found is None:
        found = fan._basis_cache[degree] = _enumerate_basis(fan, degree)
    return found


# --- text syntax --------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_JOIN = re.compile(r"\s*([-+*]?)")  # what comes before a factor, if any
_DIGITS = "([0-9]+)"  # ASCII only: \d also takes the digits of other scripts
_FACTOR = re.compile(rf"\s*(?:{_DIGITS}(?:\s*/\s*{_DIGITS})?"
                     rf"|({_NAME.pattern})(?:\s*\^\s*(-?)\s*{_DIGITS})?)")


def parse_integer(text: str) -> int:
    """An integer written as an optional sign and ASCII digits, with blanks
    around it, read by the term grammar; other text is a ParseError."""
    if not re.fullmatch(f"[-+]?{_DIGITS}", text.strip()):
        raise ParseError(f"expected an integer, got {text!r}")
    return int(_parse_terms(text, (), allow_negative=False)[0][0])


def _parse_terms(text: str, names, allow_negative: bool):
    """Read the term syntax, e.g. ``3/4*a0^2*b1 - a1^3``, in one pass into
    a list of (coefficient, exponent tuple), one per signed term, the
    exponents those of ``names``; a power below zero is refused unless
    ``allow_negative``."""
    index = {n: i for i, n in enumerate(names)}
    terms = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        join = _JOIN.match(text, pos)
        op, pos = join[1], join.end()
        # a sign opens a term, and so does nothing before the first one
        if op in ("+", "-") or not (op or terms):
            terms.append([Fraction(-1 if op == "-" else 1), [0] * len(names)])
        elif op != "*" or not terms:
            raise ParseError(f"expected '+' or '-' before "
                             f"...{text[join.start(1):][:10]!r}")
        factor = _FACTOR.match(text, pos)
        if factor is None:
            raise ParseError(f"expected a number or variable at "
                             f"...{text[pos:pos + 10]!r}")
        num, den, name, minus, power = factor.groups()
        pos, term = factor.end(), terms[-1]
        try:
            if name is None:
                term[0] *= Fraction(int(num), int(den or 1))
            elif name not in index:
                raise ParseError(f"unknown variable {name!r}")
            else:
                e = -int(power) if minus else int(power or 1)
                if e < 0 and not allow_negative:
                    raise ParseError("negative exponents are not allowed here")
                term[1][index[name]] += e
        except ZeroDivisionError as exc:
            raise ParseError(f"denominator 0 in the factor "
                             f"{factor[0].strip()[:20]!r}") from exc
        except ValueError as exc:  # a literal past int()'s digit limit
            raise ParseError(f"the factor {factor[0].strip()[:20]!r}... has "
                             f"more than {sys.get_int_max_str_digits()} "
                             f"digits") from exc
    return [(_printable(coeff, text), tuple(expo)) for coeff, expo in terms]


def _printable(coeff: Fraction, text: str) -> Fraction:
    """The coefficient, or a ParseError if ``str`` could not print it: its
    numerator or denominator has more digits than int()'s string limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    big = max(abs(coeff.numerator), coeff.denominator)
    # big < 2^(3 * limit) < 10^limit settles almost every coefficient
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise ParseError(f"a coefficient of {text[:20]!r}... has more than "
                         f"{limit} digits")
    return coeff


def parse_poly(text: str, names, side: Side) -> MultiPoly:
    """Parse the shared polynomial syntax, e.g. ``3/4*a0^2*b1 - a1^3``;
    variables must come from ``names``."""
    terms = {}
    for coeff, expo in _parse_terms(text, names, allow_negative=False):
        terms[expo] = terms.get(expo, Fraction(0)) + coeff
    return MultiPoly(side, {m: _printable(c, text) for m, c in terms.items()})


def _format_monomial(exponents, names) -> str:
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(poly: MultiPoly, names) -> str:
    """Canonical printer; round-trips bit-exactly through parse_poly."""
    if poly.is_zero():
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(poly.sorted_terms()):
        mstr = _format_monomial(mono, names)
        mag = abs(coeff)
        if mstr and mag == 1:
            body = mstr
        elif mstr:
            body = f"{mag}*{mstr}"
        else:
            body = str(mag)
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
