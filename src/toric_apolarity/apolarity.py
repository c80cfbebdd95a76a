"""The contraction action of the coordinate ring on its dual module,
annihilator pieces, Hilbert functions of apolar algebras, and the
ideal-containment test behind every upper-bound certificate."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import prod
from operator import add

from .abelian import DegreeClass
from .errors import (BoxTooLarge, CatalecticantTooLarge, GroupMismatch,
                     ParseError, SideMismatch)
from .linalg import nullspace, rank_bareiss, rank_mod
from .ring import MultiPoly, Side, basis, checked_degree

PRESCREEN_PRIME = 101
MAX_CATALECTICANT_CELLS = 4_000_000  # built and ranked at up to 24 bytes each
MAX_BOX_DEGREES = 10_000  # a box's degrees are built at once, each ranked


def contract(g: MultiPoly, form: MultiPoly) -> MultiPoly:
    """Exponent-dropping action: x^a acting on y^b gives y^(b-a) when
    b >= a componentwise, else 0.  No multiplicity constants."""
    if g.side is not Side.PRIMAL:
        raise SideMismatch("left factor of the action must be primal")
    if form.side is not Side.DUAL:
        raise SideMismatch("right factor of the action must be dual")
    terms = {}
    for a, ca in g.terms.items():
        for b, cb in form.terms.items():
            if all(bi >= ai for ai, bi in zip(a, b)):
                m = tuple(bi - ai for ai, bi in zip(a, b))
                terms[m] = terms.get(m, Fraction(0)) + ca * cb
    return MultiPoly(Side.DUAL, terms)


class ApolarForm:
    """A nonzero homogeneous dual element together with its fan, and the
    catalecticant ranks computed for it so far (``hilbert_value``).

    ``scale`` is the lcm D of the coefficient denominators and
    ``scaled_terms`` holds the integer coefficients of D times the form;
    ``basis_values`` lists them in basis(alpha) order, zeros included,
    and ``residues`` lists those mod ``PRESCREEN_PRIME``."""

    def __init__(self, fan, poly: MultiPoly):
        self.fan = fan
        self.poly = poly
        self.degree = checked_degree(fan, poly, Side.DUAL, "an apolar form")
        self.scale, self.scaled_terms = poly.integer_terms()
        self._ranks = {}  # degree -> rank of the catalecticant at it
        self._prescreens = {}  # (short side, residue bytes) -> rank mod p

    @cached_property
    def basis_values(self):
        """Listed on the first catalecticant, so forms that are never
        ranked never enumerate basis(alpha)."""
        get = self.scaled_terms.get
        return [get(m, 0) for m in basis(self.fan, self.degree)]

    @cached_property
    def residues(self):
        return [v % PRESCREEN_PRIME for v in self.basis_values]


def _sum_index_table(fan, degree: DegreeClass, form_degree: DegreeClass):
    """basis(beta), basis(alpha - beta), and per monomial of the shorter
    one (the rows when neither is) an ``array("I")`` of the positions of
    it plus each monomial of the other in basis(alpha); kept on the fan,
    since no form enters them (4 bytes per cell)."""
    key = (degree, form_degree)
    found = fan._sum_index_cache.get(key)
    if found is None:
        rows = basis(fan, degree)
        cols = basis(fan, form_degree - degree)
        if len(rows) * len(cols) > MAX_CATALECTICANT_CELLS:
            raise CatalecticantTooLarge(f"{len(rows)} x {len(cols)} cells, over the cap")
        position = {m: i for i, m in enumerate(basis(fan, form_degree))}
        short, other = (rows, cols) if len(rows) <= len(cols) else (cols, rows)
        found = fan._sum_index_cache[key] = (rows, cols, [
            array("I", [position[tuple(map(add, s, o))] for o in other])
            for s in short])
    return found


def catalecticant_entries(form: ApolarForm, degree: DegreeClass):
    """Rows (domain basis), columns (target basis), and the integer matrix
    of the contraction map from the graded piece at ``degree``, taken on
    ``form.scale`` times the form, whose rank and kernel are the form's.
    The row view for ``catalecticant`` and ``annihilator_in_degree``: each
    cell is one index into ``form.basis_values``, read off the fan's table
    and turned back into rows when the table holds the columns."""
    rows, cols, lines = _sum_index_table(form.fan, degree, form.degree)
    values = form.basis_values
    matrix = [list(map(values.__getitem__, line)) for line in lines]
    if len(rows) > len(cols):
        matrix = list(map(list, zip(*matrix))) if cols else [[] for _ in rows]
    return rows, cols, matrix


def exact_rank(form: ApolarForm, degree: DegreeClass) -> int:
    """Exact rank of the catalecticant at ``degree``, read on the fan's
    table: one line per monomial of the short side, since a rank does not
    depend on orientation.  The prescreen ranks the lines' ``form.residues``,
    one byte per cell; a full rank mod p certifies (a modular rank can only
    drop).  The form keeps each rank mod p, never a Bareiss rank, keyed by
    the short side's length and those bytes, for the transpose to read.
    Below the cap Bareiss ranks the same lines' ``form.basis_values``."""
    rows, cols, lines = _sum_index_table(form.fan, degree, form.degree)
    cap = min(len(rows), len(cols))
    if not cap:
        return 0
    cells = bytes(map(form.residues.__getitem__, chain.from_iterable(lines)))
    residue_rank = form._prescreens.get((cap, cells))
    if residue_rank is None:
        width = len(cells) // cap
        residue_rank = form._prescreens[cap, cells] = rank_mod(
            [cells[i:i + width] for i in range(0, len(cells), width)],
            PRESCREEN_PRIME)
    if residue_rank == cap:
        return cap
    values = form.basis_values
    return rank_bareiss([list(map(values.__getitem__, line)) for line in lines])


def annihilator_in_degree(form: ApolarForm, degree: DegreeClass):
    """Basis of the annihilator's graded piece, as coefficient vectors over
    the monomial basis at ``degree`` (canonical echelon kernel)."""
    rows, _, matrix = catalecticant_entries(form, degree)
    return [tuple(v) for v in nullspace(zip(*matrix), len(rows))]


def hilbert_value(form: ApolarForm, degree: DegreeClass) -> int:
    """Dimension of the apolar algebra's graded piece: the rank of the
    contraction matrix at ``degree``, computed once per form and degree
    by ``exact_rank``.

    The memo is keyed by the degree alone, not by the pair {beta,
    alpha - beta}: each degree reads its own residues through its own
    table.  The partner of a ranked degree reuses only its prescreen,
    after a byte-for-byte match of the residues, and a prescreen below
    the cap sends each degree's own integer lines to Bareiss, so on a
    deficient pair ``check_symmetry`` compares two Bareiss ranks."""
    rank = form._ranks.get(degree)
    if rank is None:
        rank = form._ranks[degree] = exact_rank(form, degree)
    return rank


@dataclass(frozen=True)
class DegreeBox:
    """Product of inclusive free-coordinate ranges, each lo <= hi (a
    reversed range is a ParseError); torsion residues are enumerated in
    full."""

    group: object
    free_ranges: tuple  # tuple of (lo, hi) pairs

    def __post_init__(self):
        if len(self.free_ranges) != self.group.free_rank:
            raise GroupMismatch(f"box has {len(self.free_ranges)} ranges, "
                                f"the group has free rank "
                                f"{self.group.free_rank}")
        for lo, hi in self.free_ranges:
            if lo > hi:
                raise ParseError(f"box range {lo}..{hi} is empty")
        count = prod(hi - lo + 1 for lo, hi in self.free_ranges)
        count *= prod(self.group.torsion_orders)
        if count > MAX_BOX_DEGREES:
            raise BoxTooLarge(f"the box has {count} degrees, more than "
                              f"{MAX_BOX_DEGREES}")

    @cached_property
    def degrees(self):  # built once, in iteration order
        axes = [range(lo, hi + 1) for lo, hi in self.free_ranges]
        axes += [range(d) for d in self.group.torsion_orders]
        rank = self.group.free_rank
        return tuple(DegreeClass(self.group, coords[:rank], coords[rank:])
                     for coords in product(*axes))

    def __iter__(self):
        return iter(self.degrees)


@dataclass(frozen=True)
class HilbertGrid:
    """Hilbert function values of an apolar algebra over a degree box."""

    values: dict


def hilbert_grid(form: ApolarForm, box: DegreeBox) -> HilbertGrid:
    return HilbertGrid({degree: hilbert_value(form, degree) for degree in box})


@dataclass(frozen=True)
class SymmetryVerdict:
    ok: bool
    witness: DegreeClass | None = None


def check_symmetry(form: ApolarForm, box: DegreeBox) -> SymmetryVerdict:
    """Verify hilbert(beta) == hilbert(alpha - beta) over the box."""
    for degree in box:
        if hilbert_value(form, degree) != hilbert_value(form,
                                                        form.degree - degree):
            return SymmetryVerdict(False, degree)
    return SymmetryVerdict(True)


def apolar_contains(generators, form: ApolarForm) -> bool:
    """True iff every generator annihilates the form.

    Sufficient for ideal containment in the annihilator: the annihilator is
    an ideal and (h*g) acting on F equals h acting on (g acting on F).
    """
    gens = getattr(generators, "generators", generators)
    for g in gens:
        checked_degree(form.fan, g, Side.PRIMAL, "an ideal generator")
        if not contract(g, form.poly).is_zero():
            return False
    return True
