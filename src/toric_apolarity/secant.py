"""Monomial parametrization of the embedding, exact decomposition checks
(each the limit check of its terms without parameters), symbolic limit
certificates for border-rank upper bounds, and randomized Terracini
tangent-rank probes over a prime field.

Tangent matrices stack, per sampled point, its coordinate row followed by
one symbolic derivative row per free chart parameter; derivatives use the
exponent-drop rule, never numerics.  Prime-field ranks only ever
underestimate the rational rank, so probe results are certified lower
bounds.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, floordiv, mul

from .abelian import DegreeClass
from .apolarity import MAX_CATALECTICANT_CELLS
from .errors import (BadPrime, InputError, NegativeExponentResidue, NonSquare,
                     ParseError, PointInIrrelevantLocus, StackTooLarge,
                     _require_counts)
from .linalg import SparseEchelon, det_bareiss, det_mod, rank_mod
from .ring import MultiPoly, Side, _parse_terms, basis

DEFAULT_PRIME = 101
DEFAULT_TRIALS = 5

# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def checked_prime(value: int) -> int:
    """``value`` if it is a prime, decided exactly; else an InputError."""
    if type(value) is not int:
        raise InputError(f"prime {value!r} is not an integer")
    if value >= _MR_LIMIT:
        raise InputError(f"prime {value} is too large to be checked")
    if value in _MR_BASES:
        return value
    if value < 2 or any(value % p == 0 for p in _MR_BASES):
        raise InputError(f"prime {value} is not a prime")
    d, s = value - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MR_BASES:
        x = pow(base, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(s - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            raise InputError(f"prime {value} is not a prime")
    return value


def _point(fan, coords):
    """The point's coordinates as Fractions: one per ray (else ParseError)
    and off the cut locus (else PointInIrrelevantLocus)."""
    coords = [Fraction(c) for c in coords]
    if len(coords) != len(fan.rays):
        raise ParseError(f"expected {len(fan.rays)} coordinates")
    if not fan.irrelevant.nonvanishing_at(coords):
        raise PointInIrrelevantLocus(f"coordinates {coords} lie in the cut locus")
    return coords


def parametrize(fan, degree: DegreeClass, coords) -> MultiPoly:
    """Image of a point under the degree's monomial parametrization:
    the sum over the dual basis of (coordinate monomial) * (basis monomial)."""
    mons, columns, tops = _basis_columns(fan, degree)
    (values,), scale = _tangent_rows(columns, tops, _point(fan, coords))
    return MultiPoly(Side.DUAL, {m: Fraction(x, scale)
                                 for m, x in zip(mons, values) if x})


@dataclass(frozen=True)
class DecompositionCheck:
    ok: bool
    residual: MultiPoly


def verify_decomposition(form, terms) -> DecompositionCheck:
    """Exact check that sum(coeff * parametrize(point)) equals the form,
    for (coefficient, coordinates) pairs: every point is checked first, in
    order, zero coefficients included; the terms are then a family without
    parameters, whose limit check's parameter-free defect is the residual."""
    family = LaurentFamily((), tuple(
        (LaurentScalar(Fraction(coeff), ()),
         tuple(LaurentScalar(c, ()) for c in _point(form.fan, coords)))
        for coeff, coords in terms))
    cert = limit_certificate(form, family)
    return DecompositionCheck(cert.valid,
                              MultiPoly(Side.DUAL, cert.constant_defect))


# --- symbolic limit families ---------------------------------------------

@dataclass(frozen=True)
class LaurentScalar:
    """coeff * (product of parameters to integer powers); 0 has coeff 0."""

    coeff: Fraction
    expo: tuple


@dataclass(frozen=True)
class LaurentFamily:
    """Finitely many terms (coefficient, point), all entries Laurent
    monomials in the named parameters."""

    params: tuple
    terms: tuple  # ((LaurentScalar, (LaurentScalar, ...)), ...)


def parse_laurent(text: str, params) -> LaurentScalar:
    """Parse a Laurent monomial such as ``-1/4*l^-2*m`` or ``0``."""
    terms = _parse_terms(text, params, allow_negative=True)
    if len(terms) != 1:
        raise ParseError(f"expected one Laurent term, got {text!r}")
    return LaurentScalar(*terms[0])


@dataclass(frozen=True)
class LimitCertificate:
    """VALID means: the parameter-free part of the expansion cancels
    exactly and every surviving term vanishes as the parameters go to 0,
    so the border rank is at most the number of family terms."""

    valid: bool
    term_count: int
    residue: tuple          # ((param expo, monomial, coeff), ...) sorted
    constant_defect: tuple  # nonzero parameter-free part when INVALID

    @property
    def status(self) -> str:
        return "VALID" if self.valid else "INVALID"


def limit_certificate(form, family: LaurentFamily) -> LimitCertificate:
    """Expand sum(coeff * parametrize(point)) - form symbolically in the
    family parameters.

    The parameter-free part is checked first: if it is nonzero the
    certificate is INVALID.  Otherwise any residue term with a negative
    exponent means the family diverges and is refused.
    """
    zero_expo = (0,) * len(family.params)
    mons, columns, tops = _basis_columns(form.fan, form.degree)
    scaled = []  # (numerator, denominator, value row, exponent rows)
    for coeff, coords in family.terms:
        if len(coords) != len(form.fan.rays):
            raise ParseError(f"expected {len(form.fan.rays)} point coordinates")
        if coeff.coeff == 0:
            continue
        (values,), scale = _tangent_rows(columns, tops,
                                         [c.coeff for c in coords])
        # parameter k's exponent at m: coeff.expo[k] + sum_i m_i c_i.expo[k]
        expos = []
        for k, e in enumerate(coeff.expo):
            row = repeat(e)
            for c, column in zip(coords, columns):
                if c.expo[k]:
                    row = map(add, row, map(mul, column, repeat(c.expo[k])))
            expos.append(row)
        scaled.append((coeff.coeff.numerator, coeff.coeff.denominator * scale,
                       values, zip(*expos) if expos else repeat(())))
    common = lcm(form.scale, *(d for _, d, _, _ in scaled))
    total = {}
    for n, d, values, expos in scaled:
        factor = n * (common // d)
        for key, x in zip(zip(expos, mons), values):
            if x:
                total[key] = total.get(key, 0) + factor * x
    factor = common // form.scale
    for mono, c in form.scaled_terms.items():
        key = (zero_expo, mono)
        total[key] = total.get(key, 0) - factor * c
    total = {key: Fraction(x, common) for key, x in total.items() if x}

    defect = tuple(sorted((mono, c) for (expo, mono), c in total.items()
                          if expo == zero_expo))
    if defect:
        return LimitCertificate(valid=False, term_count=len(family.terms),
                                residue=(), constant_defect=defect)
    negative = [(expo, mono) for (expo, mono) in total
                if any(e < 0 for e in expo)]
    if negative:
        raise NegativeExponentResidue(
            f"{len(negative)} residue terms have negative parameter exponents")
    residue = tuple(sorted((expo, mono, c) for (expo, mono), c in total.items()))
    return LimitCertificate(valid=True, term_count=len(family.terms),
                            residue=residue, constant_defect=())


# --- Terracini probes -----------------------------------------------------

def default_pins(fan):
    """Default chart: pin to 1 the first variable on each free generator's
    ray.  When the degrees are not axis-aligned, pin instead each variable
    whose free degree raises the rank of a ``SparseEchelon`` of the free
    degrees before it."""
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
        return tuple(sorted(pins))
    chosen = SparseEchelon()
    return tuple(i for i, d in enumerate(fan.var_degrees)
                 if chosen.add(dict(enumerate(d.free))))


def _chart(fan, pins):
    """The pinned positions (``default_pins`` when None) and the free ones;
    an InputError unless the pins are an iterable of distinct ray indices."""
    if pins is None:
        pins = default_pins(fan)
    elif isinstance(pins, Iterable):
        pins = tuple(pins)
    else:
        raise InputError(f"pins {pins!r}: expected a sequence of indices")
    if any(type(i) is not int for i in pins):
        raise InputError(f"pins {list(pins)}: indices must be integers")
    if len(set(pins)) != len(pins):
        raise InputError(f"pins {list(pins)} repeat an index")
    if any(not 0 <= i < len(fan.rays) for i in pins):
        raise InputError(f"pins {list(pins)}: indices must lie in "
                         f"0..{len(fan.rays) - 1}")
    return pins, [i for i in range(len(fan.rays)) if i not in pins]


def _basis_columns(fan, degree):
    """basis(degree), its exponent columns, one per variable, and each
    column's largest entry: what ``_tangent_rows`` reads at every point."""
    mons = basis(fan, degree)
    columns = list(zip(*mons)) or [()] * len(fan.rays)
    return mons, columns, [max(column, default=0) for column in columns]


def _tangent_rows(columns, tops, coords, free_positions=(), prime=None):
    """Value row plus one exponent-drop derivative row per free position,
    as Python ints, over the basis with the given exponent columns and
    column maxima (``_basis_columns``), and the scale they carry: for
    coordinates a_i/b_i the rows are scale = prod b_i^top_i times the true
    rows.  Given a prime, tables and scale are reduced mod prime (BadPrime
    when it divides some b_i), and rank_mod and det_mod reduce the
    entries.  This is the one place a monomial meets a point.

    The value row is built column by column: each entry is a product of
    one table value a^e * b^(top-e) per variable, e read from that
    variable's exponent column.  The derivative row at free position j
    is the value row times e_j * b_j / a_j, one pass over the value row:
    over Q the quotient (v * e * b) // a is exact, since a^e divides v
    whenever e >= 1; mod p the factor b * a^-1 is one residue.  Only when
    a_j is 0 (0 mod p on the prime path) is the row rebuilt as a product
    of tables, with e * a^(e-1) * b^(top-e+1) in column j.
    """
    tables = []
    scale = 1
    for c, top in zip(coords, tops):
        a, b = c.numerator, c.denominator
        if prime and b % prime == 0:
            raise BadPrime(f"prime {prime} divides the denominator of a "
                           f"coordinate")
        up = [pow(a, e, prime) for e in range(top + 1)]
        if b != 1:
            down = [pow(b, e, prime) for e in range(top, -1, -1)]
            up = list(map(mul, up, down))
            scale *= down[0]
        tables.append(up)
    value = _table_product(tables, columns)
    rows = [value]
    for j in free_positions:
        a, b = coords[j].numerator, coords[j].denominator
        column = columns[j]
        if prime and a % prime:
            step = b * pow(a, -1, prime) % prime
            factor = [e * step for e in range(len(tables[j]))]
            rows.append(list(map(mul, value, map(factor.__getitem__, column))))
        elif a and not prime:
            factor = [e * b for e in range(len(tables[j]))]
            rows.append(list(map(floordiv, map(mul, value,
                                               map(factor.__getitem__, column)),
                                 repeat(a))))
        else:
            slope = [e * x for e, x in enumerate([0] + tables[j][:-1])]
            rows.append(_table_product(
                tables[:j] + [slope] + tables[j + 1:], columns))
    return rows, scale % prime if prime else scale


def _table_product(tables, columns):
    """The row whose entry k is the product over variables i of
    tables[i][columns[i][k]], built one column at a time."""
    row = map(tables[0].__getitem__, columns[0])
    for table, column in zip(tables[1:], columns[1:]):
        row = map(mul, row, map(table.__getitem__, column))
    return list(row)


@dataclass(frozen=True)
class TerraciniProbe:
    """Max tangent-stack rank over the trials; a certified lower bound for
    the secant dimension (mod-p rank never exceeds the rational rank)."""

    degree: DegreeClass
    points: int
    prime: int
    seed: int
    trials: int
    pins: tuple
    ranks: tuple
    rank: int
    ambient_dim: int        # dim of the full dual graded piece
    dim_estimate: int       # projective dimension estimate: rank - 1
    fills_space: bool
    degenerate: bool        # every trial stayed below the expected cap


def terracini_probe(fan, degree: DegreeClass, r: int, prime: int = DEFAULT_PRIME,
                    trials: int = DEFAULT_TRIALS, seed: int = 0,
                    pins=None) -> TerraciniProbe:
    _require_counts(r=r, trials=trials)
    checked_prime(prime)
    if type(seed) is not int:  # any other value, None too, is not replayable
        raise InputError(f"seed must be an integer, got {seed!r}")
    pins, free_positions = _chart(fan, pins)
    mons, columns, tops = _basis_columns(fan, degree)
    cells = trials * r * (len(free_positions) + 1) * len(mons)
    if cells > MAX_CATALECTICANT_CELLS:
        raise StackTooLarge(f"{trials} trials of {r} points make {cells} "
                            f"tangent-stack cells, over the cap")

    def stack(points):
        return [row for coords in points for row in
                _tangent_rows(columns, tops, coords, free_positions, prime)[0]]

    # the first `enough` points may already reach rank dim, which no
    # larger stack passes; every point is drawn all the same, so the
    # random stream does not depend on it
    enough = -(-len(mons) // (len(free_positions) + 1))
    rng = random.Random(seed)
    ranks = []
    for _ in range(trials):
        points = []
        for _ in range(r):
            for _ in range(50):
                coords = [1 if i in pins else rng.randrange(prime)
                          for i in range(len(fan.rays))]
                if fan.irrelevant.nonvanishing_at(coords):
                    break
            else:
                raise PointInIrrelevantLocus("sampling kept hitting the cut locus")
            points.append(coords)
        rows = stack(points[:enough])
        rank = rank_mod(rows, prime)
        if rank < len(mons) and r > enough:
            rank = rank_mod(rows + stack(points[enough:]), prime)
        ranks.append(rank)
    best = max(ranks)
    cap = min(len(mons), r * (len(free_positions) + 1))
    return TerraciniProbe(degree=degree, points=r, prime=prime, seed=seed,
                          trials=trials, pins=pins, ranks=tuple(ranks),
                          rank=best, ambient_dim=len(mons),
                          dim_estimate=best - 1,
                          fills_space=(best == len(mons)),
                          degenerate=(best < cap))


def terracini_determinant_check(fan, degree: DegreeClass, r: int, assignment,
                                prime: int | None = None, pins=None):
    """Exact determinant of the stacked tangent matrix at an explicit
    parameter assignment, over Q or over Z/prime."""
    _require_counts(r=r)
    if prime is not None:
        checked_prime(prime)
    _, free_positions = _chart(fan, pins)
    mons, columns, tops = _basis_columns(fan, degree)
    per_point = len(free_positions)
    if len(assignment) != r * per_point:
        raise ParseError(f"need {r * per_point} assignment values, "
                         f"got {len(assignment)}")
    if r * (per_point + 1) != len(mons):
        raise NonSquare(
            f"stacked matrix is {r * (per_point + 1)}x{len(mons)}")
    values = [Fraction(v) for v in assignment]
    rows, scale = [], 1
    for k in range(r):
        coords = [1] * len(fan.rays)
        for pos, val in zip(free_positions, values[k * per_point:]):
            coords[pos] = val
        point_rows, point_scale = _tangent_rows(columns, tops, coords,
                                                free_positions, prime)
        rows += point_rows
        scale *= point_scale ** len(point_rows)
    if prime is None:
        return Fraction(det_bareiss(rows), scale)
    return det_mod(rows, prime) * pow(scale, -1, prime) % prime
