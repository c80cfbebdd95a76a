"""Degreewise linear algebra on homogeneous ideals: graded pieces spanned
by monomial multiples of the generators, colon pieces against the
irrelevant ideal, and zero-dimensional length estimation by Hilbert
function stabilization along multiples of an ample class.

dim I_D, and so each length sample, takes one of three routes: for a
monomial ideal, the monomials of basis(D) that a generator divides,
counted along the walk's lines (``ring.BasisLines.standard``); for
generators of at most two terms, the rank of a gain graph on basis(D)
(``_gain_rank``); otherwise, as for every ideal and colon piece, an echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, repeat
from operator import and_, ge

from .abelian import DegreeClass
from .apolarity import ApolarForm, apolar_contains
from .errors import (BasisTooLarge, ContainmentFailed, NotStabilized,
                     _require_counts)
from .linalg import SparseEchelon, nullspace
from .ring import BasisLines, Side, basis, checked_degree, monomial_key


class IdealGens:
    """Homogeneous generating set of an ideal in the coordinate ring.  Its
    pieces are counted if ``monomials`` (each one's exponents) is not None;
    else ``shapes``, the generators by number of terms, makes them gain
    graphs if the last has <= 2 terms, else echelons, monomial rows first."""

    def __init__(self, fan, generators):
        self.fan = fan
        self.generators = tuple(generators)
        shapes = []
        for g in self.generators:
            checked_degree(fan, g, Side.PRIMAL, "an ideal generator")
            # integer terms: the largest (e, lead), then the others
            _, terms = g.integer_terms()
            e = max(terms, key=monomial_key)
            lead = terms.pop(e)
            shapes.append((e, lead, list(terms.items())))
        self.shapes = tuple(sorted(shapes, key=lambda shape: len(shape[2])))
        self.monomials = (None if any(others for _, _, others in shapes)
                          else tuple(e for e, _, _ in shapes))


def _multiples(columns, e):
    """Positions, among the monomials given by their exponent columns, of
    the m >= e, compared on e's support, in order."""
    hits = repeat(True)
    for column, x in zip(columns, e):
        if x:
            hits = map(and_, hits, map(ge, column, repeat(x)))
    return compress(range(len(columns[0]) if columns else 0), hits)


def _piece_rows(ideal: IdealGens, degree: DegreeClass):
    """basis(D), its exponent columns, and per generator g (lead, leads,
    [(c, cols), ...]): its multiples' rows, lead at columns ``leads`` and
    each other term's c at ``cols``.  The multiple by m - e (e g's largest
    term) has its term f at m - e + f: ``leads`` are the m >= e, ``cols``
    the m >= f (``_multiples``), matched in order, as a monomial order is
    translation invariant."""
    mons = basis(ideal.fan, degree)
    columns = tuple(zip(*mons))
    return mons, columns, (
        (lead, list(_multiples(columns, e)),
         [(c, list(_multiples(columns, f))) for f, c in others])
        for e, lead, others in ideal.shapes)


def _piece_echelon(ideal: IdealGens, degree: DegreeClass):
    """Echelon of the graded piece, each row of ``_piece_rows`` entered as
    {j: c, ..., i: lead}; also returns the exponent columns of basis(D)."""
    _, columns, rows = _piece_rows(ideal, degree)
    ech = SparseEchelon()
    for lead, leads, others in rows:
        for i, *js in zip(leads, *(cols for _, cols in others)):
            ech.add({**{j: c for j, (c, _) in zip(js, others)}, i: lead})
    return ech, columns


def _gain_rank(ideal: IdealGens, degree: DegreeClass) -> int:
    """dim I_D = |basis(D)| - #balanced components of a gain graph, when no
    generator has three terms: a binomial's row (lead at i, c at j) is the
    edge y_i = w*y_j, w = -c/lead, and a monomial's the loop y_i = 0*y_i, a
    half-edge.  A potential y_v / y_root is a product of the gains w_g, kept
    as its exponents packed in one int (k_g at bit 64*g): composing adds."""
    mons, _, rows = _piece_rows(ideal, degree)
    parent, power = list(range(len(mons))), [0] * len(mons)
    unbalanced, gains = bytearray(len(mons)), []

    def find(v):  # iterative, compressing v's path to the root
        root, k = v, 0
        while parent[root] != root:
            root, k = parent[root], k + power[root]
        while v != root:  # k is v's potential, then its parent's
            power[v], parent[v], k, v = k, root, k - power[v], parent[v]
        return root

    @cache
    def is_one(d):  # prod w_g ** k_g == 1 for the 64-bit digits k_g of d
        value = Fraction(1)
        for w in gains:
            d, k = divmod(d + (1 << 63), 1 << 64)
            value *= w ** (k - (1 << 63))
        return value == 1

    for lead, leads, others in rows:
        (c, partners), = others or [(0, leads)]
        unit = 1 << 64 * len(gains)
        gains.append(Fraction(-c, lead))
        for i, j in zip(leads, partners):
            ri, rj = find(i), find(j)
            d = unit + power[j] - power[i]  # w * (y_j / y_rj) / (y_i / y_ri)
            if ri != rj:  # the potential of ri under rj
                parent[ri], power[ri] = rj, d
                unbalanced[rj] |= unbalanced[ri]
            else:  # a cycle: balanced when its gains multiply to 1
                unbalanced[ri] = unbalanced[ri] or d != 0 and not is_one(d)
    return sum(parent[v] != v or unbalanced[v] for v in range(len(mons)))


def ideal_piece_dimension(ideal: IdealGens, degree: DegreeClass) -> int:
    """dim I_D, by the first of the module's three routes that applies."""
    if ideal.monomials is None:
        return (_gain_rank(ideal, degree) if len(ideal.shapes[-1][2]) <= 1
                else _piece_echelon(ideal, degree)[0].rank)
    lines = BasisLines(ideal.fan, degree)
    return lines.size - lines.standard(ideal.monomials)


def ideal_piece(ideal: IdealGens, degree: DegreeClass):
    """Canonical basis (coefficient vectors over the monomial basis) of the
    ideal's graded piece."""
    ncols = len(basis(ideal.fan, degree))
    return [tuple(Fraction(row.get(c, 0)) for c in range(ncols))
            for row in _piece_echelon(ideal, degree)[0].reduced().values()]


def colon_piece(ideal: IdealGens, degree: DegreeClass):
    """Basis of the colon piece against the fan's irrelevant ideal: the
    elements whose product with each of its generators m passes every
    check of I_{D + deg m}, the functionals vanishing exactly on it.  They
    are that piece's ``SparseEchelon.kernel`` read at the shifted domain
    monomials: the m' >= m of basis(D + deg m) (``_multiples``), in
    basis(D)'s order."""
    fan = ideal.fan
    n = len(basis(fan, degree))
    if n == 0:
        return []
    conditions = []
    for expo in fan.irrelevant.generators:
        ech, columns = _piece_echelon(ideal,
                                      degree + fan.monomial_degree(expo))
        conditions += ech.kernel(_multiples(columns, expo))
    return [tuple(v) for v in nullspace(conditions, n)]


def saturation_gap(ideal: IdealGens, degree: DegreeClass) -> int:
    """dim(colon piece) - dim(ideal piece); zero means the ideal already
    agrees with its saturation in this degree.  The agreement theorem only
    covers Cartier degrees; elsewhere the number is informational."""
    return (len(colon_piece(ideal, degree))
            - ideal_piece_dimension(ideal, degree))


@dataclass(frozen=True)
class LengthEstimate:
    """Stabilized value of dim(S/I) along multiples of an ample class.

    Valid as a length if the scheme is zero-dimensional and the ideal is
    saturated in high degrees; ``stabilized`` is False when the last
    ``window`` samples disagree.
    """

    value: int
    stabilized: bool
    samples: tuple  # ((k, dim) ...)


# Most monomials the samples k = 1..max_k of a length estimate may have in
# all, an empty sample counting one; more are refused before any ranking.
MAX_LENGTH_MONOMIALS = 100_000
# unless told otherwise, the samples are k = 1..12 and the last 3 must agree
DEFAULT_WINDOW = 3
DEFAULT_MAX_K = 12


def length_estimate(ideal: IdealGens, ample: DegreeClass,
                    window: int = DEFAULT_WINDOW,
                    max_k: int = DEFAULT_MAX_K) -> LengthEstimate:
    """dim(S/I) at k * ample, k = 1..max_k.  The pieces are walked first,
    largest k first: a section of the ample class embeds each in the next,
    so an oversized max_k meets the basis cap at its first piece.  Each
    sample counts at least one, so a max_k over the budget is refused
    before any piece is walked; window and max_k below 1 are InputErrors.
    Only then is each sample taken: the standard monomials counted on a
    monomial ideal's lines, else |basis| - ``ideal_piece_dimension``."""
    fan, monomials = ideal.fan, ideal.monomials
    _require_counts(window=window, max_k=max_k)
    if max_k > MAX_LENGTH_MONOMIALS:
        raise BasisTooLarge(f"the samples k = 1..{max_k} have more than "
                            f"{MAX_LENGTH_MONOMIALS} monomials")
    pieces, total = [], 0
    for k in range(max_k, 0, -1):
        degree = ample.scale(k)
        lines = None if monomials is None else BasisLines(fan, degree)
        size = len(basis(fan, degree)) if lines is None else lines.size
        pieces.append((k, degree, size, lines))
        total += size or 1
        if total > MAX_LENGTH_MONOMIALS:
            raise BasisTooLarge(f"the samples k = {k}..{max_k} have more "
                                f"than {MAX_LENGTH_MONOMIALS} monomials")
    samples = [(k, size - ideal_piece_dimension(ideal, degree)
                if lines is None else lines.standard(monomials))
               for k, degree, size, lines in reversed(pieces)]
    tail = [d for _, d in samples[-window:]]
    stabilized = len(tail) == window and len(set(tail)) == 1
    return LengthEstimate(value=samples[-1][1], stabilized=stabilized,
                          samples=tuple(samples))


@dataclass(frozen=True)
class CactusCertificate:
    """Containment plus a length estimate: an upper bound for cactus rank,
    and for rank too when the scheme is asserted reduced."""

    length: LengthEstimate
    reduced_asserted: bool

    @property
    def cactus_bound(self) -> int:
        return self.length.value

    @property
    def rank_bound(self) -> int | None:
        return self.length.value if self.reduced_asserted else None


def cactus_certificate(form: ApolarForm, ideal: IdealGens,
                       ample: DegreeClass, window: int = DEFAULT_WINDOW,
                       max_k: int = DEFAULT_MAX_K,
                       reduced_asserted: bool = False) -> CactusCertificate:
    """Check the counts and that the ideal annihilates the form, then
    estimate the length of the scheme it cuts out; refused if the ideal
    does not annihilate the form or the samples did not stabilize."""
    _require_counts(window=window, max_k=max_k)
    if not apolar_contains(ideal, form):
        raise ContainmentFailed("ideal is not contained in the annihilator")
    estimate = length_estimate(ideal, ample, window=window, max_k=max_k)
    if not estimate.stabilized:
        raise NotStabilized(f"the length samples k = 1..{max_k} do not end "
                            f"in {window} equal values")
    return CactusCertificate(length=estimate, reduced_asserted=reduced_asserted)
