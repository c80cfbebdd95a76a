"""Degreewise linear algebra on homogeneous ideals: graded pieces spanned
by monomial multiples of the generators, colon pieces against the
irrelevant ideal, and zero-dimensional length estimation by Hilbert
function stabilization along multiples of an ample class.

When every generator is a monomial, dim I_D is the number of monomials of
basis(D) that some generator divides; ``ideal_piece_dimension`` and
``length_estimate`` count them along the walk's lines
(``ring.BasisLines.standard``), with no basis listed and no echelon.  An
ideal with a generator of two or more terms is ranked by ``SparseEchelon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import add, and_, ge, sub

from .abelian import DegreeClass
from .apolarity import ApolarForm, apolar_contains
from .errors import BasisTooLarge, ContainmentFailed, _require_counts
from .linalg import SparseEchelon, nullspace
from .ring import BasisLines, Side, basis, checked_degree, monomial_key


class IdealGens:
    """Homogeneous generating set of an ideal in the coordinate ring;
    ``shapes`` lists the generators' rows by their number of terms, so a
    monomial's rows are pivots before another row meets them, and
    ``monomials`` holds the exponents when each is a monomial, else None."""

    def __init__(self, fan, generators):
        self.fan = fan
        self.generators = tuple(generators)
        shapes = []
        for g in self.generators:
            checked_degree(fan, g, Side.PRIMAL, "an ideal generator")
            # in integer coefficients: the largest term's exponent e and
            # coefficient, and the other terms as (exponent - e, c)
            _, terms = g.integer_terms()
            e = max(terms, key=monomial_key)
            lead = terms.pop(e)
            shapes.append((e, lead, [(tuple(map(sub, mono, e)), c)
                                     for mono, c in terms.items()]))
        self.shapes = tuple(sorted(shapes, key=lambda shape: len(shape[2])))
        self.monomials = (None if any(offsets for _, _, offsets in shapes)
                          else tuple(e for e, _, _ in shapes))


def _multiples(columns, e):
    """Positions, among the monomials given by their exponent columns, of
    the m >= e, compared on e's support, in order."""
    hits = repeat(True)
    for column, x in zip(columns, e):
        if x:
            hits = map(and_, hits, map(ge, column, repeat(x)))
    return compress(range(len(columns[0]) if columns else 0), hits)


def _piece_echelon(ideal: IdealGens, degree: DegreeClass):
    """Echelon of the graded piece, spanned by every monomial multiple of
    every generator landing in ``degree``; also returns the exponent
    columns of basis(D), one tuple per variable.

    The multipliers basis(D - deg g) of a generator g are read off
    basis(D): for the largest term e of g they are the m - e with m in
    basis(D) and m >= e (``_multiples``), in the same order, and the row
    of m - e leads at m's own column, since the monomial order is
    translation invariant.  Each generator is scaled to integer
    coefficients; the ideal is the same.  A monomial's row is {m: lead}."""
    mons = basis(ideal.fan, degree)
    columns = tuple(zip(*mons))
    index = {m: i for i, m in enumerate(mons)}
    ech = SparseEchelon()
    for e, lead, offsets in ideal.shapes:
        for i in _multiples(columns, e):
            row = {index[tuple(map(add, mons[i], off))]: c
                   for off, c in offsets}
            row[i] = lead
            ech.add(row)
    return ech, columns


def ideal_piece_dimension(ideal: IdealGens, degree: DegreeClass) -> int:
    """dim I_D: for a monomial ideal the monomials of basis(D) that a
    generator divides, counted along the walk's lines; otherwise the rank of
    the piece's echelon."""
    if ideal.monomials is None:
        return _piece_echelon(ideal, degree)[0].rank
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


def length_estimate(ideal: IdealGens, ample: DegreeClass,
                    window: int = 3, max_k: int = 12) -> LengthEstimate:
    """dim(S/I) at k * ample, k = 1..max_k.  The pieces are walked first,
    largest k first: a section of the ample class embeds each in the next,
    so an oversized max_k meets the basis cap at its first piece.  Each
    sample counts at least one, so a max_k over the budget is refused
    before any piece is walked; window and max_k below 1 are InputErrors.
    Only then is each sample taken: for a monomial ideal, the standard
    monomials counted on the piece's lines (one walk per k, no basis
    listed); otherwise |basis| minus the rank of the piece's echelon."""
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
                       ample: DegreeClass, window: int = 3, max_k: int = 12,
                       reduced_asserted: bool = False) -> CactusCertificate:
    """Check the counts and that the ideal annihilates the form (refused
    if not), then estimate the length of the scheme it cuts out."""
    _require_counts(window=window, max_k=max_k)
    if not apolar_contains(ideal, form):
        raise ContainmentFailed("ideal is not contained in the annihilator")
    estimate = length_estimate(ideal, ample, window=window, max_k=max_k)
    return CactusCertificate(length=estimate, reduced_asserted=reduced_asserted)
